package knee

import (
	"encoding/json"
	"errors"
	"fmt"
)

// ModelSetFormatVersion is the on-disk format version MarshalJSON stamps
// into every serialized ModelSet. UnmarshalJSON accepts versions 1 through
// this one and rejects anything else, so an old binary fails loudly instead
// of silently misreading a future layout.
const ModelSetFormatVersion = 1

// modelSetWire is the versioned JSON layout of a ModelSet.
type modelSetWire struct {
	Format       string        `json:"format"`
	Version      int           `json:"version"`
	Models       []*Model      `json:"models"`
	Observations []Observation `json:"observations,omitempty"`
}

// modelSetFormat names the artifact so unrelated JSON fails decoding with a
// clear message instead of producing an empty model set.
const modelSetFormat = "rsgen-size-models"

// MarshalJSON encodes the model set in the versioned wire format.
func (ms *ModelSet) MarshalJSON() ([]byte, error) {
	return json.Marshal(modelSetWire{
		Format:       modelSetFormat,
		Version:      ModelSetFormatVersion,
		Models:       ms.Models,
		Observations: ms.Observations,
	})
}

// UnmarshalJSON decodes the versioned wire format.
func (ms *ModelSet) UnmarshalJSON(data []byte) error {
	var w modelSetWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	if w.Format != modelSetFormat {
		return fmt.Errorf("knee: artifact format %q, want %q", w.Format, modelSetFormat)
	}
	if w.Version < 1 || w.Version > ModelSetFormatVersion {
		return fmt.Errorf("knee: artifact version %d, want 1…%d", w.Version, ModelSetFormatVersion)
	}
	ms.Models = w.Models
	ms.Observations = w.Observations
	return nil
}

// validateLoaded checks the structural invariants PredictSize relies on, so
// a truncated or hand-edited artifact fails at load time, not per query.
func (ms *ModelSet) validateLoaded() error {
	if len(ms.Models) == 0 {
		return errors.New("knee: loaded model set is empty")
	}
	for _, m := range ms.Models {
		if m == nil {
			return errors.New("knee: loaded model set has a null model")
		}
		if len(m.Sizes) == 0 || len(m.CCRs) == 0 {
			return fmt.Errorf("knee: model at threshold %v has an empty grid", m.Threshold)
		}
		if len(m.Planes) != len(m.Sizes) {
			return fmt.Errorf("knee: model at threshold %v has %d plane rows for %d sizes", m.Threshold, len(m.Planes), len(m.Sizes))
		}
		for _, row := range m.Planes {
			if len(row) != len(m.CCRs) {
				return fmt.Errorf("knee: model at threshold %v has a plane row of %d cells for %d CCRs", m.Threshold, len(row), len(m.CCRs))
			}
		}
	}
	return nil
}
