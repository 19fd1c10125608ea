package spec

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"rsgen/internal/heurpred"
	"rsgen/internal/knee"
)

// ArtifactFormatVersion is the generator-artifact version SaveGenerator
// writes. LoadGenerator accepts versions 1 through this one and rejects
// anything else.
const ArtifactFormatVersion = 1

const artifactFormat = "rsgen-generator"

// artifactWire is the on-disk form of a trained generator: every model in
// one JSON document, plus training-provenance metadata so loaders can
// report how much work the artifact saves.
type artifactWire struct {
	Format  string `json:"format"`
	Version int    `json:"version"`
	// TrainSeconds is the wall-clock cost of the training run that
	// produced the artifact (0 when unknown).
	TrainSeconds float64         `json:"train_seconds,omitempty"`
	Size         *knee.ModelSet  `json:"size"`
	Heuristic    *heurpred.Model `json:"heuristic,omitempty"`
	SCR          *knee.SCRModel  `json:"scr,omitempty"`
}

// SaveGenerator writes the generator's trained models as one versioned JSON
// artifact. trainSeconds records the training cost the artifact amortizes;
// pass 0 when unknown.
func SaveGenerator(w io.Writer, g *Generator, trainSeconds float64) error {
	if g == nil || g.Size == nil || len(g.Size.Models) == 0 {
		return errors.New("spec: cannot save a generator without a size model")
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(artifactWire{
		Format:       artifactFormat,
		Version:      ArtifactFormatVersion,
		TrainSeconds: trainSeconds,
		Size:         g.Size,
		Heuristic:    g.Heur,
		SCR:          g.SCR,
	})
}

// LoadGenerator reads an artifact written by SaveGenerator and returns the
// assembled generator plus the recorded training cost in seconds (0 when
// unknown).
func LoadGenerator(r io.Reader) (*Generator, float64, error) {
	var w artifactWire
	if err := json.NewDecoder(r).Decode(&w); err != nil {
		return nil, 0, fmt.Errorf("spec: load generator: %w", err)
	}
	if w.Format != artifactFormat {
		return nil, 0, fmt.Errorf("spec: artifact format %q, want %q", w.Format, artifactFormat)
	}
	if w.Version < 1 || w.Version > ArtifactFormatVersion {
		return nil, 0, fmt.Errorf("spec: artifact version %d, want 1…%d", w.Version, ArtifactFormatVersion)
	}
	if w.Size == nil || len(w.Size.Models) == 0 {
		return nil, 0, errors.New("spec: artifact has no size models")
	}
	return &Generator{Size: w.Size, Heur: w.Heuristic, SCR: w.SCR}, w.TrainSeconds, nil
}
