package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"apres/internal/gpu"
	"apres/internal/harness"
	"apres/internal/resultstore"
	"apres/internal/server"
	"apres/internal/stats"
	"apres/internal/trace"
	"apres/internal/version"
	"apres/internal/workloads"
	"apres/internal/workspec"
)

// The traced run reports the per-layer metrics. Spans are recorded from
// the benchmark's own files only, around calls into each package's public
// functions: the simulator layers through mirrorRun and replayL1, the
// service layers through direct calls, and the harness through
// Runner.Stats and PoolGauges.

// traceSim times the simulator layers over the sim_single cells and sets
// their metrics. Per cell it runs gpu.Simulate untraced, the mirrored loop
// (which must equal it), and a gpu.WithTrace run whose L1 stream is
// replayed into fresh caches (whose counts must equal the traced ones).
func traceSim(r *run, cells []cell) []gpu.Result {
	var lt layerTime
	var untraced, traced time.Duration
	// total sums every cell's statistics; cycles and smCycles sum each
	// cell's run length, and events counts decision events by kind.
	var total stats.Stats
	var cycles, smCycles int64
	events := map[trace.Kind]int64{}
	var rep l1Replay
	var results []gpu.Result
	for _, c := range cells {
		t0 := time.Now()
		ref, err := gpu.Simulate(c.cfg, c.w.Kernel)
		d := time.Since(t0)
		if !r.check(err == nil, "sim %s: %v", c.name, err) {
			continue
		}
		untraced += d
		r.set("gpu.cell_s."+c.name, d.Seconds(), "s")
		results = append(results, ref)

		m, t, err := mirrorRun(c.cfg, c.w.Kernel)
		r.check(err == nil && m.Cycles == ref.Cycles && m.Total == ref.Total && reflect.DeepEqual(m.PerSM, ref.PerSM),
			"mirror %s: differs from gpu.Simulate (err=%v cycles %d vs %d)", c.name, err, m.Cycles, ref.Cycles)
		lt.add(&t)

		sink := newL1Sink()
		tr := trace.New(sink, 0)
		t0 = time.Now()
		tres, err := gpu.Simulate(c.cfg, c.w.Kernel, gpu.WithTrace(tr))
		tr.Close()
		traced += time.Since(t0)
		if !r.check(err == nil && sameSim(tres, ref), "traced %s: differs from the untraced run (%v)", c.name, err) {
			continue
		}
		rp, err := replayL1(c.cfg, sink.Events)
		r.check(err == nil && rp.hits == rp.tracedHits && rp.misses == rp.tracedMisses && rp.merges == rp.tracedMerges,
			"L1 replay %s: %v (hits %d/%d misses %d/%d merges %d/%d)", c.name, err,
			rp.hits, rp.tracedHits, rp.misses, rp.tracedMisses, rp.merges, rp.tracedMerges)
		rep.accesses += rp.accesses
		rep.fills += rp.fills
		rep.accessTime += rp.accessTime
		rep.fillTime += rp.fillTime
		for k, n := range sink.counts {
			events[k] += n
		}
		total.Add(&ref.Total)
		cycles += ref.Cycles
		smCycles += ref.Cycles * int64(len(ref.PerSM))
	}
	r.set("gpu.loop_self_s", lt.self().Seconds(), "s")
	r.set("gpu.cycles", float64(lt.cycles), "count")
	r.set("gpu.cycles_skipped_frac", ratio(lt.skipped, lt.cycles), "frac")
	r.set("core.tick_s", lt.coreTick.Seconds(), "s")
	r.set("core.tick_calls", float64(lt.tickCalls), "count")
	r.set("core.fill_s", lt.coreFill.Seconds(), "s")
	r.set("core.skipidle_s", lt.coreSkip.Seconds(), "s")
	r.set("core.ipc", ratio(total.Instructions, cycles), "inst/cycle")
	r.set("core.issue_stall_frac", ratio(total.IssueStallCycles, smCycles), "frac")
	r.set("mem.l1_access_ns", nsPer(rep.accessTime, rep.accesses), "ns")
	r.set("mem.l1_fill_ns", nsPer(rep.fillTime, rep.fills), "ns")
	r.set("mem.l1_accesses", float64(total.L1Accesses), "count")
	r.set("mem.l1_hit_frac", ratio(total.L1Hits, total.L1Accesses), "frac")
	r.set("mem.l1_mshr_stall_frac", ratio(total.L1Stalls, total.L1Accesses+total.L1Stalls), "frac")
	r.set("sched.laws_promotes", float64(events[trace.KindGroupPromote]), "count")
	r.set("sched.laws_demotes", float64(events[trace.KindGroupDemote]), "count")
	r.set("prefetch.issued", float64(total.PrefetchIssued), "count")
	r.set("prefetch.useful_frac", ratio(total.PrefetchUseful, total.PrefetchIssued), "frac")
	r.set("prefetch.early_evict_frac", ratio(total.PrefetchEarlyEvicted, total.PrefetchIssued), "frac")
	r.set("prefetch.sap_gate_frac", ratio(events[trace.KindSAPGate], events[trace.KindSAPGate]+events[trace.KindSAPIssue]), "frac")
	r.set("dram.tick_s", lt.dramTick.Seconds(), "s")
	r.set("dram.request_s", lt.dramRequest.Seconds(), "s")
	r.set("dram.request_calls", float64(lt.requestCalls), "count")
	r.set("dram.next_event_s", lt.dramNext.Seconds(), "s")
	r.set("dram.l2_hit_frac", ratio(total.GPUL2Hits, total.L2Accesses), "frac")
	r.set("dram.queue_cycles_per_access", ratio(total.DRAMQueueCycles, total.DRAMAccesses), "cycles")
	r.set("dram.mem_latency_cycles", ratio(total.MemLatencySum, total.MemLatencyCount), "cycles")
	r.set("noc.deliver_s", lt.nocDeliver.Seconds(), "s")
	r.set("noc.enqueue_s", lt.nocEnqueue.Seconds(), "s")
	r.set("noc.deliver_calls", float64(lt.deliverCalls), "count")
	r.set("noc.bytes_to_sm", float64(total.BytesToSM), "B")
	r.set("trace.overhead_frac", traced.Seconds()/untraced.Seconds()-1, "frac")
	// The mirrored loop's own cost over gpu.Simulate: the price of the
	// benchmark's per-call timers, not of the trace layer.
	r.info["mirror_overhead_frac"] = lt.loop.Seconds()/untraced.Seconds() - 1
	r.info["untraced_s"] = untraced.Seconds()
	return results
}

func ratio(n, d int64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

func nsPer(d time.Duration, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}

// traceService times direct calls into resultstore, twin, workspec and the
// server's response encoding, on the paths probe's 105 cells at its scale
// in a seed-chosen order and on the paper workloads' spec files.
func traceService(r *run, results []gpu.Result) error {
	if len(results) == 0 {
		return fmt.Errorf("no simulated results to replay")
	}
	rng := rand.New(rand.NewSource(r.seed))
	var cells [][2]string
	for _, app := range harness.AllApps() {
		for _, c := range probeConfigs {
			cells = append(cells, [2]string{app, c})
		}
	}
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })

	// resultstore: replay the probe's key sequence. The cold path misses
	// and puts; a fresh handle then reads every cell back from disk, as
	// the store path does.
	dir := filepath.Join(r.scratch, "replay-store")
	st, err := resultstore.Open(dir, 0)
	if err != nil {
		return err
	}
	// The store keys the probe's Runner gives its cells.
	keyer := harness.NewRunner(r.probeScale(), 0)
	keyer.Store = st
	keys := make([]string, len(cells))
	for i, c := range cells {
		cfg, err := harness.NamedConfig(c[1])
		if err != nil {
			return err
		}
		keys[i] = keyer.StoreKey(c[0], cfg, false)
	}
	var getT, putT time.Duration
	var gets, puts, hits int64
	get := func(key string) bool {
		t0 := time.Now()
		_, ok := st.Get(key)
		getT += time.Since(t0)
		gets++
		if ok {
			hits++
		}
		return ok
	}
	for i, c := range cells {
		r.check(!get(keys[i]), "store replay %v: cold key hit", c)
		t0 := time.Now()
		err := st.Put(keys[i], resultstore.Entry{Workload: c[0], Scale: r.probeScale(), Version: version.Stamp(), Result: results[i%len(results)]})
		putT += time.Since(t0)
		puts++
		if err != nil {
			return err
		}
	}
	if st, err = resultstore.Open(dir, 0); err != nil {
		return err
	}
	for i, c := range cells {
		r.check(get(keys[i]), "store replay %v: stored key missed", c)
	}
	r.set("resultstore.get_ns", nsPer(getT, gets), "ns")
	r.set("resultstore.put_ns", nsPer(putT, puts), "ns")
	r.set("resultstore.hit_frac", ratio(hits, gets), "frac")

	// twin: Predict on the probe cells, which are off the calibration
	// scale, so they carry a scale-qualified id as the harness gives them.
	m := twinModel()
	var predT time.Duration
	var preds int64
	for rep := 0; rep < 10; rep++ {
		for _, c := range cells {
			w, _ := workloads.ByName(c[0])
			w.Kernel = w.Kernel.Scaled(r.probeScale())
			cfg, _ := harness.NamedConfig(c[1])
			t0 := time.Now()
			_, err := m.Predict(fmt.Sprintf("%s@scale=%g", c[0], r.probeScale()), w, cfg)
			predT += time.Since(t0)
			preds++
			r.check(err == nil, "twin predict %v: %v", c, err)
		}
	}
	r.set("twin.predict_ns", nsPer(predT, preds), "ns")

	// workspec: parse, validate, compile and digest the paper workloads'
	// spec files.
	var specT time.Duration
	var specs int64
	for rep := 0; rep < 20; rep++ {
		for _, app := range harness.AllApps() {
			raw, err := os.ReadFile(filepath.Join(r.root, "examples", "specs", app+".json"))
			if err != nil {
				return err
			}
			t0 := time.Now()
			s, err := parseSpec(raw)
			if err == nil {
				_, err = s.Compile()
				s.Digest()
			}
			specT += time.Since(t0)
			specs++
			r.check(err == nil, "spec %s: %v", app, err)
		}
	}
	r.set("workspec.compile_ns", nsPer(specT, specs), "ns")

	// server: encode the reply a memo hit sends.
	var encT time.Duration
	var encs, bytes int64
	for rep := 0; rep < 50; rep++ {
		for _, res := range results {
			t0 := time.Now()
			b, err := json.Marshal(server.SimulateResponse{
				Workload: "KM", Config: "apres", Cached: true,
				Version: version.Stamp(), Result: res, Engine: harness.EngineCycleAccurate,
			})
			encT += time.Since(t0)
			encs++
			bytes += int64(len(b))
			r.check(err == nil, "encode: %v", err)
		}
	}
	r.set("server.encode_ns", nsPer(encT, encs), "ns")
	r.set("server.resp_kb", float64(bytes)/float64(encs)/1024, "KiB")
	return nil
}

func parseSpec(raw []byte) (*workspec.Spec, error) {
	s, err := workspec.Parse(raw)
	if err != nil {
		return nil, err
	}
	return s, s.Validate()
}

// traceCommon runs the simulator and service layer traces every traced
// run reports.
func traceCommon(r *run) error {
	cells, err := buildCells(r.root, r.simScale())
	if err != nil {
		return err
	}
	return traceService(r, traceSim(r, cells))
}

// setHarness reports Runner statistics and sampled pool gauges.
func setHarness(r *run, s harness.RunStats, busy, waiting []float64) {
	r.set("harness.sims", float64(s.Simulations), "count")
	r.set("harness.memo_hits", float64(s.CacheHits), "count")
	r.set("harness.dedup_waits", float64(s.DedupWaits), "count")
	r.set("harness.store_hits", float64(s.StoreHits), "count")
	r.set("harness.twin_served", float64(s.TwinServed), "count")
	r.set("harness.pool_busy_frac", mean(busy), "frac")
	r.set("harness.pool_waiting_p90", quantile(waiting, 0.9), "count")
}

// traceLayers is sim_single's traced run. Its harness figures come from
// the in-process paths probe, which has no pool to sample, so the two
// pool gauges read 0 here; they are fig_sweep's figures.
func traceLayers(r *run) error {
	if err := traceCommon(r); err != nil {
		return err
	}
	pr := newProbe(r, nil)
	for i := 0; i < r.rounds(); i++ {
		if err := pr.round(i); err != nil {
			return err
		}
	}
	setHarness(r, pr.finish(), nil, nil)
	return nil
}

// traceFigSweep is fig_sweep's traced run: one sweep with its pool
// gauges sampled every 10ms.
func traceFigSweep(r *run, rng *rand.Rand) error {
	if err := traceCommon(r); err != nil {
		return err
	}
	rn := newSweepRunner(r.figScale())
	apps := harness.AllApps()
	rng.Shuffle(len(apps), func(i, j int) { apps[i], apps[j] = apps[j], apps[i] })
	p := samplePool(rn, 10*time.Millisecond)
	ch, err := rn.Fig10(apps)
	p.finish()
	if r.check(err == nil, "sweep: %v", err) {
		r.check(checkFig10(ch) == nil, "sweep: %v", checkFig10(ch))
	}
	setHarness(r, rn.Stats(), p.busy, p.waiting)
	return nil
}
