package spec

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"rsgen/internal/heurpred"
	"rsgen/internal/knee"
)

// TestLoadGeneratorEnvelopes pins what LoadGenerator accepts of the artifact
// envelope and of both nested models: a saved generator round-trips, and a
// document without a format, with another artifact's format, without a
// version, or newer than this binary is rejected.
func TestLoadGeneratorEnvelopes(t *testing.T) {
	gen := &Generator{
		Size: &knee.ModelSet{Models: []*knee.Model{{Threshold: 0.01, Sizes: []float64{100}, CCRs: []float64{0.1}}}},
		Heur: &heurpred.Model{Heuristics: []string{"HEFT"}},
	}
	var saved bytes.Buffer
	if err := SaveGenerator(&saved, gen, 2.5); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		member  string // "" edits the envelope, else the nested model under this key
		key     string
		value   any // nil deletes key
		wantErr string
	}{
		{name: "round trip"},
		{name: "envelope/no format", key: "format", wantErr: `spec: artifact format ""`},
		{name: "envelope/wrong format", key: "format", value: "rsgen-size-models", wantErr: `spec: artifact format "rsgen-size-models"`},
		{name: "envelope/no version", key: "version", wantErr: "spec: artifact version 0"},
		{name: "envelope/newer", key: "version", value: ArtifactFormatVersion + 1, wantErr: "spec: artifact version 2"},
		{name: "size/no format", member: "size", key: "format", wantErr: `knee: artifact format ""`},
		{name: "size/wrong format", member: "size", key: "format", value: artifactFormat, wantErr: `knee: artifact format "rsgen-generator"`},
		{name: "size/no version", member: "size", key: "version", wantErr: "knee: artifact version 0"},
		{name: "size/newer", member: "size", key: "version", value: knee.ModelSetFormatVersion + 1, wantErr: "knee: artifact version 2"},
		{name: "heuristic/no format", member: "heuristic", key: "format", wantErr: `heurpred: artifact format ""`},
		{name: "heuristic/wrong format", member: "heuristic", key: "format", value: "rsgen-size-models", wantErr: `heurpred: artifact format "rsgen-size-models"`},
		{name: "heuristic/no version", member: "heuristic", key: "version", wantErr: "heurpred: artifact version 0"},
		{name: "heuristic/newer", member: "heuristic", key: "version", value: heurpred.ModelFormatVersion + 1, wantErr: "heurpred: artifact version 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var doc map[string]any
			if err := json.Unmarshal(saved.Bytes(), &doc); err != nil {
				t.Fatal(err)
			}
			obj := doc
			if tc.member != "" {
				obj = doc[tc.member].(map[string]any)
			}
			if tc.key != "" {
				if tc.value == nil {
					delete(obj, tc.key)
				} else {
					obj[tc.key] = tc.value
				}
			}
			edited, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			loaded, trainSeconds, err := LoadGenerator(bytes.NewReader(edited))
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("LoadGenerator = %v, want an error containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var again bytes.Buffer
			if err := SaveGenerator(&again, loaded, trainSeconds); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), saved.Bytes()) {
				t.Fatalf("round trip changed the artifact:\n%s\nwant:\n%s", again.Bytes(), saved.Bytes())
			}
		})
	}
}
