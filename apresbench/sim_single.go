package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"time"

	"apres/internal/config"
	"apres/internal/gpu"
	"apres/internal/stats"
	"apres/internal/workloads"
	"apres/internal/workspec"
)

// cell is one full-scale sim_single simulation.
type cell struct {
	name string
	cfg  config.Config
	w    workloads.Workload
	// id is the twin's workload id: the benchmark name, or the spec label.
	id string
}

// cellDef names a sim_single cell by its traffic role; see BENCHMARK.json
// for why each one is in the set.
type cellDef struct {
	name, app, spec, cfg string
	warpsPerSM           int
}

var simCells = []cellDef{
	{name: "KM-base", app: "KM", cfg: "base"},
	{name: "KM-apres", app: "KM", cfg: "apres"},
	{name: "NW-apres", app: "NW", cfg: "apres"},
	{name: "SP-base", app: "SP", cfg: "base"},
	{name: "BFS-w2", app: "BFS", cfg: "base", warpsPerSM: 2},
	{name: "HS-base", app: "HS", cfg: "base"},
	{name: "pointer_chase-apres", spec: "pointer_chase.json", cfg: "apres"},
}

// simScale is the sim_single iteration scale: full size, or a sliver for
// the smoke test.
func (r *run) simScale() float64 {
	if r.tiny {
		return 0.02
	}
	return 1
}

// buildCells builds every sim_single kernel, compiling the spec cell from
// examples/specs; this is sim_single's set-up work.
func buildCells(root string, scale float64) ([]cell, error) {
	out := make([]cell, 0, len(simCells))
	for _, d := range simCells {
		var cfg config.Config
		switch d.cfg {
		case "base":
			cfg = config.Baseline()
		case "apres":
			cfg = config.APRES()
		default:
			return nil, fmt.Errorf("cell %s: unknown config %q", d.name, d.cfg)
		}
		if d.warpsPerSM > 0 {
			cfg.WarpsPerSM = d.warpsPerSM
		}
		var w workloads.Workload
		id := d.app
		if d.spec != "" {
			s, err := workspec.ParseFile(filepath.Join(root, "examples", "specs", d.spec))
			if err != nil {
				return nil, err
			}
			if w, err = s.Compile(); err != nil {
				return nil, err
			}
			id = s.Label()
		} else {
			var ok bool
			if w, ok = workloads.ByName(d.app); !ok {
				return nil, fmt.Errorf("cell %s: unknown workload %q", d.name, d.app)
			}
		}
		if scale != 1 {
			w.Kernel = w.Kernel.Scaled(scale)
		}
		out = append(out, cell{name: d.name, cfg: cfg, w: w, id: id})
	}
	return out, nil
}

// timeSetup runs build n times and returns the median wall time in
// seconds, so a few slow set-ups do not set the figure.
func timeSetup(n int, build func() error) (float64, error) {
	var v []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := build(); err != nil {
			return 0, err
		}
		v = append(v, time.Since(t0).Seconds())
	}
	return median(v), nil
}

func runSimSingle(r *run) error {
	cells, err := buildCells(r.root, r.simScale())
	if err != nil {
		return err
	}
	if r.trace {
		return traceLayers(r)
	}
	rng := rand.New(rand.NewSource(r.seed))
	ref := make([]gpu.Result, len(cells))
	cellMS := map[string][]float64{}
	pr := newProbe(r, func() error {
		_, err := buildCells(r.root, r.simScale())
		return err
	})
	rounds := r.rounds()
	for round := 0; round < rounds; round++ {
		// A round of the probe is spread over the round of cells.
		for k, i := range rng.Perm(len(cells)) {
			c := cells[i]
			t0 := time.Now()
			res, err := gpu.Simulate(c.cfg, c.w.Kernel)
			cellMS[c.name] = append(cellMS[c.name], ms(time.Since(t0)))
			if r.check(err == nil && !res.HitMaxCycles && res.Cycles > 0, "sim %s: err=%v cycles=%d", c.name, err, res.Cycles) {
				if round == 0 {
					ref[i] = res
				} else {
					r.check(sameSim(ref[i], res), "sim %s: round %d differs from round 0", c.name, round)
				}
			}
			if err := pr.runUntil(round, k+1, len(cells)); err != nil {
				return err
			}
		}
	}
	// Throughput over each cell's median repetition. A cell runs for
	// 0.1-1.2 s, long enough to average over spells of host contention,
	// so its median is steadier between runs than its fastest repetition.
	var insts int64
	var secs float64
	for i, c := range cells {
		insts += ref[i].Total.Instructions
		secs += median(cellMS[c.name]) / 1e3
	}
	r.set("sim_insts_per_s", float64(insts)/secs, "1/s")
	r.info["rounds"] = rounds
	r.info["cell_ms"] = cellMS

	var twinErr []float64
	for i, c := range cells {
		e, err := twinIPCError(c.id, c.w, c.cfg, r.simScale(), ref[i])
		if r.check(err == nil, "twin %s: %v", c.name, err) {
			twinErr = append(twinErr, e)
		}
	}
	r.set("twin_ipc_err_pct", mean(twinErr), "%")
	r.info["twin_ipc_err_cells"] = "the sim_single cells at full scale (all off the scale-0.25 calibration set)"

	named := make([]namedResult, len(cells))
	for i, c := range cells {
		named[i] = namedResult{c.name, ref[i]}
	}
	r.info["stats_digest"] = statsDigest(named)
	if err := twinFig10Err(r); err != nil {
		return err
	}
	pr.finish()
	return setRSS(r)
}

// sameSim reports whether two runs simulated the same thing: cycles, the
// aggregate and every per-SM statistic.
func sameSim(a, b gpu.Result) bool {
	return a.Cycles == b.Cycles && a.Total == b.Total && reflect.DeepEqual(a.PerSM, b.PerSM)
}

// namedResult is one simulated cell in a digest.
type namedResult struct {
	Name string
	Res  gpu.Result
}

// statsDigest hashes every simulated statistic of cells, in the given
// order: per cell its name, cycles, aggregate stats and per-SM stats. It is
// reported, not pinned, so a speed-only change can show that its simulated
// statistics are unchanged.
func statsDigest(cells []namedResult) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, c := range cells {
		// Encoding integer-only structs into a hash cannot fail.
		_ = enc.Encode(struct {
			Name   string
			Cycles int64
			Total  stats.Stats
			PerSM  []stats.Stats
		}{c.Name, c.Res.Cycles, c.Res.Total, c.Res.PerSM})
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// setRSS reports the benchmark's peak resident set size.
func setRSS(r *run) error {
	mb, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", mb, "MiB")
	return nil
}
