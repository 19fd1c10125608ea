package expt

// Chapter VII: the resource specification generator — concrete vgDL /
// ClassAd / SWORD output for Montage, the clock-rate × RC-size trade-off,
// and alternative-specification thresholds.

import (
	"fmt"

	"rsgen/internal/classad"
	"rsgen/internal/dag"
	"rsgen/internal/knee"
	"rsgen/internal/platform"
	"rsgen/internal/spec"
	"rsgen/internal/sword"
	"rsgen/internal/vgdl"
	"rsgen/internal/xrand"
)

// ch7Generator trains the models backing the generator at experiment scale.
func ch7Generator(cfg Config) (*spec.Generator, error) {
	p := ch5Scale(cfg)
	ms, err := knee.Train(knee.TrainConfig{
		Sizes: p.sizes, CCRs: p.ccrs, Alphas: p.alphas, Betas: p.betas,
		Reps: p.reps, Density: 0.5, MeanCost: 40,
		Thresholds: []float64{0.001, 0.02, 0.10}, Sweep: cfg.sweep(), Seed: cfg.seed(),
	})
	if err != nil {
		return nil, err
	}
	return &spec.Generator{Size: ms}, nil
}

// ch7Montage is the Chapter VII example workflow.
func ch7Montage(cfg Config) *dag.DAG {
	if cfg.Full {
		return dag.MustMontage(dag.MontageLevels4469(), 0.01)
	}
	return dag.MustMontage(dag.MontageLevels1629(), 0.01)
}

func init() {
	register(Experiment{
		ID: "fig-vii-3", Ref: "Figures VII-3/VII-4/VII-5",
		Desc: "Generated ClassAd, SWORD XML and vgDL for the Montage workflow, verified against selectors",
		Run:  runFigVII345,
	})
	for _, alias := range []string{"fig-vii-4", "fig-vii-5"} {
		a := alias
		register(Experiment{
			ID: a, Ref: "Figures VII-3/VII-4/VII-5",
			Desc: "Alias of fig-vii-3 (one generation produces all three specifications)",
			Run:  runFigVII345,
		})
	}

	register(Experiment{
		ID: "fig-vii-6", Ref: "Figure VII-6 / Table VII-2",
		Desc: "Turn-around as a function of host clock rate and RC size",
		Run: func(cfg Config) ([]*Table, error) {
			p := ch5Scale(cfg)
			dags := ch5DAGs(cfg.seed(), p.curveSize, 0.01, 0.6, 0.5, p.reps)
			clocks := []float64{2.0, 2.4, 2.8, 3.0, 3.5}
			sizes := []int{8, 16, 32, 64, 128}
			t := &Table{ID: "fig-vii-6", Title: "Turn-around (s) by clock rate × RC size"}
			t.Header = []string{"clock \\ size"}
			for _, s := range sizes {
				t.Header = append(t.Header, itoa(s))
			}
			for _, c := range clocks {
				row := []string{f2(c) + " GHz"}
				sw := cfg.sweep()
				sw.ClockGHz = c
				for _, s := range sizes {
					pt, err := knee.EvalSize(dags, sw, s)
					if err != nil {
						return nil, err
					}
					row = append(row, f1(pt.TurnAround))
				}
				t.AddRow(row...)
			}
			t.Notes = append(t.Notes, "expected shape: iso-performance moves down-right — slower clocks need more hosts, with diminishing effect")
			return []*Table{t}, nil
		},
	})

	register(Experiment{
		ID: "fig-vii-7", Ref: "Figure VII-7",
		Desc: "Relative RC-size threshold for downgrading from 3.5 GHz to slower clock classes",
		Run: func(cfg Config) ([]*Table, error) {
			p := ch5Scale(cfg)
			dags := ch5DAGs(cfg.seed(), p.curveSize, 0.01, 0.6, 0.5, p.reps)
			baseSweep := cfg.sweep()
			baseSweep.ClockGHz = 3.5
			curve, err := knee.Sweep(dags, baseSweep)
			if err != nil {
				return nil, err
			}
			baseSize, baseTurn := curve.Knee(knee.DefaultThreshold)
			t := &Table{ID: "fig-vii-7", Title: fmt.Sprintf("Equivalent RC sizes for the 3.5 GHz base of %d hosts (turn-around %.1f s)", baseSize, baseTurn),
				Header: []string{"clock class", "equivalent size", "relative size"}}
			for _, alt := range []float64{3.2, 3.0, 2.8, 2.4, 2.0} {
				size, ok, err := spec.EquivalentSize(dags, cfg.sweep(), baseSize, 3.5, alt, 0.15)
				if err != nil {
					return nil, err
				}
				if !ok {
					t.AddRow(f2(alt)+" GHz", "unreachable", "-")
					continue
				}
				t.AddRow(f2(alt)+" GHz", itoa(size), f2(float64(size)/float64(baseSize)))
			}
			t.Notes = append(t.Notes,
				"tolerance: downgraded RC may be up to 15% slower than the base",
				"expected shape: relative size grows as clock drops; below some clock the base turn-around is unreachable (the workflow's serial spine scales with clock)")
			return []*Table{t}, nil
		},
	})

	register(Experiment{
		ID: "tab-vii-1", Ref: "Table VII-1",
		Desc: "Montage level table (same data as tab-iv-2)",
		Run: func(cfg Config) ([]*Table, error) {
			e, _ := Get("tab-iv-2")
			ts, err := e.Run(cfg)
			if err != nil {
				return nil, err
			}
			for _, t := range ts {
				t.ID = "tab-vii-1"
			}
			return ts, nil
		},
	})
}

func runFigVII345(cfg Config) ([]*Table, error) {
	g, err := ch7Generator(cfg)
	if err != nil {
		return nil, err
	}
	d := ch7Montage(cfg)
	s, err := g.Generate(d, spec.Options{ClockGHz: 3.0, HeterogeneityTolerance: 0.2})
	if err != nil {
		return nil, err
	}

	t := &Table{ID: "fig-vii-3", Title: "Generated resource specifications for Montage",
		Header: []string{"field", "value"}}
	t.AddRow("heuristic", s.Heuristic)
	t.AddRow("rc size", itoa(s.RCSize))
	t.AddRow("clock range", fmt.Sprintf("%.2f–%.2f GHz", s.MinClockGHz, s.MaxClockGHz))
	t.AddRow("threshold", pct(s.Threshold))
	t.Notes = append(t.Notes,
		"--- ClassAd (Fig. VII-3) ---\n"+s.ClassAd,
		"--- SWORD XML (Fig. VII-4) ---\n"+s.SwordXML,
		"--- vgDL (Fig. VII-5) ---\n"+s.VgDL,
	)

	// End-to-end fulfillment check against the three selector substrates.
	clusters := 120
	if cfg.Full {
		clusters = 1000
	}
	p := platform.MustGenerate(platform.GenSpec{Clusters: clusters, Year: 2007},
		xrand.NewFrom(cfg.seed(), 0xC7))
	t2 := &Table{ID: "fig-vii-3-fulfillment", Title: "Fulfillment of the generated specifications",
		Header: []string{"system", "result"}}

	if v, err := vgdl.Parse(s.VgDL); err != nil {
		t2.AddRow("vgES", "generated vgDL failed to parse: "+err.Error())
	} else if rc, err := vgdl.NewFinder(p).Find(v); err != nil {
		t2.AddRow("vgES", "unfulfilled: "+err.Error())
	} else {
		t2.AddRow("vgES", fmt.Sprintf("VG with %d hosts", rc.Size()))
	}

	if ad, err := classad.Parse(s.ClassAd); err != nil {
		t2.AddRow("Condor", "generated ClassAd failed to parse: "+err.Error())
	} else {
		matched := classad.MatchHosts(ad, p, s.RCSize, nil)
		t2.AddRow("Condor", fmt.Sprintf("%d machines matched (requested %d)", len(matched), s.RCSize))
	}

	if req, err := sword.Decode(s.SwordXML); err != nil {
		t2.AddRow("SWORD", "generated XML failed to decode: "+err.Error())
	} else if sel, err := sword.NewDirectory(p, xrand.NewFrom(cfg.seed(), 0x57)).Select(req); err != nil {
		t2.AddRow("SWORD", "unfulfilled: "+err.Error())
	} else {
		t2.AddRow("SWORD", fmt.Sprintf("group of %d nodes, total penalty %.1f",
			len(sel.Members["rc"]), sel.TotalPenalty))
	}
	return []*Table{t, t2}, nil
}
