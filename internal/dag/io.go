package dag

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// fileFormat is the JSON wire form of a DAG, as written; wire.go reads it.
type fileFormat struct {
	Tasks []Task `json:"tasks"`
	Edges []Edge `json:"edges"`
}

// MarshalJSON encodes the DAG as {"tasks": [...], "edges": [...]}.
func (d *DAG) MarshalJSON() ([]byte, error) {
	return json.Marshal(fileFormat{Tasks: d.tasks, Edges: d.edges})
}

// Encode writes the DAG to w as JSON.
func (d *DAG) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(fileFormat{Tasks: d.tasks, Edges: d.edges})
}

// WriteDOT renders the DAG in Graphviz DOT format for visualization. Task
// labels include costs; edge labels include transfer costs.
func (d *DAG) WriteDOT(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "digraph dag {")
	fmt.Fprintln(bw, "  rankdir=TB;")
	for _, t := range d.tasks {
		name := t.Name
		if name == "" {
			name = fmt.Sprintf("t%d", t.ID)
		}
		fmt.Fprintf(bw, "  n%d [label=\"%s\\n%.3g s\"];\n", t.ID, name, t.Cost)
	}
	for _, e := range d.edges {
		fmt.Fprintf(bw, "  n%d -> n%d [label=\"%.3g s\"];\n", e.From, e.To, e.Cost)
	}
	fmt.Fprintln(bw, "}")
	return bw.Flush()
}
