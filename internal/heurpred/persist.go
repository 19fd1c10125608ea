package heurpred

import (
	"encoding/json"
	"fmt"
)

// ModelFormatVersion is the on-disk format version MarshalJSON stamps into
// every serialized Model. UnmarshalJSON accepts versions 1 through this one
// and rejects anything else.
const ModelFormatVersion = 1

const modelFormat = "rsgen-heuristic-model"

// modelWire is the versioned JSON layout of a Model.
type modelWire struct {
	Format       string        `json:"format"`
	Version      int           `json:"version"`
	Observations []Observation `json:"observations"`
	Heuristics   []string      `json:"heuristics"`
}

// MarshalJSON encodes the model in the versioned wire format.
func (m *Model) MarshalJSON() ([]byte, error) {
	return json.Marshal(modelWire{
		Format:       modelFormat,
		Version:      ModelFormatVersion,
		Observations: m.Observations,
		Heuristics:   m.Heuristics,
	})
}

// UnmarshalJSON decodes the versioned wire format and rebuilds the
// normalization spans Predict uses.
func (m *Model) UnmarshalJSON(data []byte) error {
	var w modelWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if w.Format != modelFormat {
		return fmt.Errorf("heurpred: artifact format %q, want %q", w.Format, modelFormat)
	}
	if w.Version < 1 || w.Version > ModelFormatVersion {
		return fmt.Errorf("heurpred: artifact version %d, want 1…%d", w.Version, ModelFormatVersion)
	}
	m.Observations = w.Observations
	m.Heuristics = w.Heuristics
	if len(m.Observations) > 0 {
		// Precompute spans so concurrent Predict calls never race on the
		// lazy initialization path.
		m.computeSpans()
	}
	return nil
}
