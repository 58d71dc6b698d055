package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"apres/internal/config"
	"apres/internal/gpu"
	"apres/internal/harness"
	"apres/internal/twin"
	"apres/internal/workloads"
)

// paperFig10 holds the paper's Figure 10 mean gains over the baseline, in
// percent (EXPERIMENTS.md).
var paperFig10 = map[string]float64{
	"ccws": 12.8, "laws": 14.0, "ccws+str": 17.5, "laws+str": 18.8, "apres": 24.2,
}

// figScale is the Figure 10 sweep's iteration scale.
func (r *run) figScale() float64 {
	if r.tiny {
		return 0.02
	}
	return 0.25
}

// twinHeldOut are the Figure 10 configurations outside the twin's
// calibration set ({base, apres, ccws} at scale 0.25).
var twinHeldOut = []string{"laws", "ccws+str", "laws+str"}

// fig10Err is the mean over Figure 10's five series of |measured mean gain
// - paper mean gain| in percentage points. Means are taken over
// harness.AllApps in its fixed order, so the app order a sweep ran in
// cannot change the last digit.
func fig10Err(ch *harness.Chart) (float64, error) {
	var errs []float64
	for _, name := range harness.Fig10Configs {
		s, ok := ch.SeriesByName(name)
		if !ok {
			return 0, fmt.Errorf("figure 10 lacks series %q", name)
		}
		gain := (s.Mean(harness.AllApps()) - 1) * 100
		errs = append(errs, math.Abs(gain-paperFig10[name]))
	}
	return mean(errs), nil
}

// checkFig10 verifies the chart's shape: every app of every series holds a
// finite, positive speedup.
func checkFig10(ch *harness.Chart) error {
	if len(ch.Series) != len(harness.Fig10Configs) {
		return fmt.Errorf("figure 10 has %d series, want %d", len(ch.Series), len(harness.Fig10Configs))
	}
	for _, s := range ch.Series {
		if len(s.Values) != len(harness.AllApps()) {
			return fmt.Errorf("series %s has %d apps", s.Name, len(s.Values))
		}
		for _, app := range harness.AllApps() {
			v, ok := s.Values[app]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				return fmt.Errorf("series %s app %s: %v", s.Name, app, v)
			}
		}
	}
	return nil
}

// sweepCells lists the distinct simulations behind Figure 10 in a fixed
// order: every app under the baseline and the five compared techniques.
func sweepCells() [][2]string {
	var out [][2]string
	for _, app := range harness.AllApps() {
		for _, c := range append([]string{"base"}, harness.Fig10Configs...) {
			out = append(out, [2]string{app, c})
		}
	}
	return out
}

// newSweepRunner builds the sweep's Runner and loads its twin: fig_sweep's
// set-up work.
func newSweepRunner(scale float64) *harness.Runner {
	rn := harness.NewRunner(scale, 0)
	rn.Jobs = nproc()
	rn.Twin()
	return rn
}

// poolSampler samples a Runner's pool gauges until stopped.
type poolSampler struct {
	stop    chan struct{}
	done    sync.WaitGroup
	busy    []float64
	waiting []float64
}

func samplePool(rn *harness.Runner, every time.Duration) *poolSampler {
	p := &poolSampler{stop: make(chan struct{})}
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				capacity, busy, waiting := rn.PoolGauges()
				p.busy = append(p.busy, float64(busy)/float64(capacity))
				p.waiting = append(p.waiting, float64(waiting))
			}
		}
	}()
	return p
}

func (p *poolSampler) finish() { close(p.stop); p.done.Wait() }

// sweep runs one Figure 10 on a fresh Runner, apps in a seed-chosen order.
func sweep(r *run, rng *rand.Rand) (*harness.Runner, *harness.Chart, time.Duration, error) {
	rn := newSweepRunner(r.figScale())
	apps := harness.AllApps()
	rng.Shuffle(len(apps), func(i, j int) { apps[i], apps[j] = apps[j], apps[i] })
	t0 := time.Now()
	ch, err := rn.Fig10(apps)
	return rn, ch, time.Since(t0), err
}

// sweepResults reads the sweep's memoised cells back in sweepCells order.
func sweepResults(rn *harness.Runner) ([]namedResult, error) {
	var out []namedResult
	for _, c := range sweepCells() {
		if !rn.Memoised(c[0], c[1], false) {
			return nil, fmt.Errorf("cell %s/%s was not simulated by the sweep", c[0], c[1])
		}
		res, err := rn.Run(c[0], c[1])
		if err != nil {
			return nil, err
		}
		out = append(out, namedResult{c[0] + "/" + c[1], res})
	}
	return out, nil
}

// measureSweep runs and checks sweep n, returning its cells, chart,
// simulated instructions and wall time; ok is false when it failed.
func measureSweep(r *run, rng *rand.Rand, n int) (cells []namedResult, ch *harness.Chart, insts int64, wall time.Duration, ok bool) {
	rn, ch, wall, err := sweep(r, rng)
	if !r.check(err == nil, "sweep %d: %v", n, err) {
		return nil, nil, 0, 0, false
	}
	r.check(checkFig10(ch) == nil, "sweep %d: %v", n, checkFig10(ch))
	cells, err = sweepResults(rn)
	if !r.check(err == nil, "sweep %d: %v", n, err) {
		return nil, nil, 0, 0, false
	}
	for _, c := range cells {
		insts += c.Res.Total.Instructions
	}
	return cells, ch, insts, wall, true
}

func runFigSweep(r *run) error {
	rng := rand.New(rand.NewSource(r.seed))
	if r.trace {
		return traceFigSweep(r, rng)
	}
	var first []namedResult
	var firstChart *harness.Chart
	var insts int64
	var wall time.Duration
	var sweepS []float64
	pr := newProbe(r, func() error { newSweepRunner(r.figScale()); return nil })
	rounds := r.rounds()
	for n := 0; n < rounds; n++ {
		cells, ch, in, w, ok := measureSweep(r, rng, n)
		if ok {
			insts += in
			wall += w
			sweepS = append(sweepS, w.Seconds())
			if first == nil {
				first, firstChart = cells, ch
			} else {
				same := true
				for i := range cells {
					same = same && sameSim(first[i].Res, cells[i].Res)
				}
				r.check(same, "sweep %d simulated different statistics than sweep 0", n)
			}
		}
		if err := pr.round(n); err != nil {
			return err
		}
	}
	if first == nil {
		return fmt.Errorf("no sweep succeeded: %v", r.problems)
	}
	// Over all sweeps together. With both vCPUs busy, a sweep runs in
	// spells of host contention lasting seconds, so the fastest of a few
	// sweeps flips between two speeds from run to run; the total averages
	// over the spells.
	r.set("sim_insts_per_s", float64(insts)/wall.Seconds(), "1/s")
	r.info["sweep_s"] = sweepS
	r.info["stats_digest"] = statsDigest(first)
	e, err := fig10Err(firstChart)
	if err != nil {
		return err
	}
	r.set("fig10_err_pp", e, "pp")
	r.info["fig10_scale"] = r.figScale()
	r.info["fig10_engine"] = "cycle-accurate"

	// Twin IPC error on the held-out configurations, against the sweep's
	// own simulated cells.
	tr := harness.NewRunner(r.figScale(), 0)
	byCell := map[string]gpu.Result{}
	for _, c := range first {
		byCell[c.Name] = c.Res
	}
	var errs []float64
	for _, app := range harness.AllApps() {
		for _, c := range twinHeldOut {
			out, err := tr.RunEngineNamed(context.Background(), app, c, false,
				harness.EngineReq{Engine: harness.EngineTwin}, harness.RunOpts{})
			if !r.check(err == nil && out.Engine == harness.EngineTwin, "twin %s/%s: %v", app, c, err) {
				continue
			}
			sim := byCell[app+"/"+c]
			errs = append(errs, relErrPct(out.Result.IPC(), sim.IPC()))
		}
	}
	r.set("twin_ipc_err_pct", mean(errs), "%")
	r.info["twin_ipc_err_cells"] = fmt.Sprintf("%d held-out cells: all apps x %v at scale %g", len(errs), twinHeldOut, r.figScale())
	pr.finish()
	return setRSS(r)
}

func relErrPct(pred, ref float64) float64 {
	if ref == 0 {
		return math.Inf(1)
	}
	return math.Abs(pred-ref) / ref * 100
}

// twinModel is the analytical twin shared by direct Predict calls.
var twinModel = sync.OnceValue(twin.New)

// twinIPCError predicts one cell with the twin and returns its IPC error
// against the simulated result. Cells off the calibration scale get a
// scale-qualified id, as the harness does, so no anchor applies.
func twinIPCError(id string, w workloads.Workload, cfg config.Config, scale float64, sim gpu.Result) (float64, error) {
	m := twinModel()
	if scale != m.Calibration().Scale {
		id = fmt.Sprintf("%s@scale=%g", id, scale)
	}
	p, err := m.Predict(id, w, cfg)
	if err != nil {
		return 0, err
	}
	return relErrPct(p.IPC, sim.IPC()), nil
}

// twinFig10Err is Figure 10's error with every cell answered by the twin
// at the sweep scale; the workloads that run no sweep report this.
func twinFig10Err(r *run) error {
	rn := harness.NewRunner(r.figScale(), 0)
	rn.Jobs = nproc()
	rn.EngineDefault = harness.EngineTwin
	ch, err := rn.Fig10(harness.AllApps())
	if !r.check(err == nil, "twin figure 10: %v", err) {
		return nil
	}
	if !r.check(checkFig10(ch) == nil, "twin figure 10: %v", checkFig10(ch)) {
		return nil
	}
	e, err := fig10Err(ch)
	if err != nil {
		return err
	}
	r.set("fig10_err_pp", e, "pp")
	r.info["fig10_scale"] = r.figScale()
	r.info["fig10_engine"] = "twin"
	return nil
}
