package main

import (
	"time"

	"apres/internal/arch"
	"apres/internal/config"
	"apres/internal/core"
	"apres/internal/dram"
	"apres/internal/kernel"
	"apres/internal/noc"
	"apres/internal/stats"
)

// layerTime accumulates host time and call counts per layer boundary of
// the mirrored run loop.
type layerTime struct {
	loop                                     time.Duration // whole run loop
	coreTick, coreFill, coreSkip             time.Duration
	dramTick, dramRequest, dramNext          time.Duration
	nocDeliver, nocEnqueue, nocNext          time.Duration
	tickCalls, fillCalls, skipCalls          int64
	requestCalls, deliverCalls, enqueueCalls int64
	cycles, skipped                          int64
}

func (t *layerTime) add(o *layerTime) {
	t.loop += o.loop
	t.coreTick += o.coreTick
	t.coreFill += o.coreFill
	t.coreSkip += o.coreSkip
	t.dramTick += o.dramTick
	t.dramRequest += o.dramRequest
	t.dramNext += o.dramNext
	t.nocDeliver += o.nocDeliver
	t.nocEnqueue += o.nocEnqueue
	t.nocNext += o.nocNext
	t.tickCalls += o.tickCalls
	t.fillCalls += o.fillCalls
	t.skipCalls += o.skipCalls
	t.requestCalls += o.requestCalls
	t.deliverCalls += o.deliverCalls
	t.enqueueCalls += o.enqueueCalls
	t.cycles += o.cycles
	t.skipped += o.skipped
}

// self is the loop's own time: the whole loop minus every timed call.
func (t *layerTime) self() time.Duration {
	return t.loop - t.coreTick - t.coreFill - t.coreSkip - t.dramTick - t.dramRequest -
		t.dramNext - t.nocDeliver - t.nocEnqueue - t.nocNext
}

// timedPort is the SMs' core.MemPort: it times every injection into the
// memory system. Injections happen inside SM.Tick, so their time is
// subtracted from core.tick_s and reported as dram.request_s.
type timedPort struct {
	mem *dram.MemSystem
	t   *layerTime
}

func (p *timedPort) Request(req arch.MemReq, cycle int64) {
	t0 := time.Now()
	p.mem.Request(req, cycle)
	p.t.dramRequest += time.Since(t0)
	p.t.requestCalls++
}

// mirrorResult is what the mirrored loop simulated.
type mirrorResult struct {
	Cycles int64
	Total  stats.Stats
	PerSM  []stats.Stats
}

// mirrorRun is the benchmark's own copy of gpu.RunContext's serial loop
// with cycle skipping, built from the public core, dram and noc APIs, with
// every call into those layers timed. Its result must equal gpu.Simulate's
// exactly; the caller checks that.
func mirrorRun(cfg config.Config, kern kernel.Kernel) (mirrorResult, layerTime, error) {
	var t layerTime
	var shared stats.Stats
	memSys := dram.New(cfg, &shared)
	net := noc.New(cfg.NumSMs, cfg.NoCBytesPerCycle, &shared)
	port := &timedPort{mem: memSys, t: &t}
	smStats := make([]stats.Stats, cfg.NumSMs)
	wake := make([]int64, cfg.NumSMs)
	sms := make([]*core.SM, cfg.NumSMs)
	for i := range sms {
		sm, err := core.NewSM(i, cfg, kern, port, &smStats[i])
		if err != nil {
			return mirrorResult{}, t, err
		}
		sms[i] = sm
	}
	maxCycles := cfg.MaxCycles
	if maxCycles <= 0 {
		maxCycles = 1 << 62
	}

	// skipTo mirrors gpu's event-driven fast-forward: jump to the next
	// cycle at which any component can act, accounting the gap as idle.
	skipTo := func(cycle int64) int64 {
		next := maxCycles
		anyLive := false
		for i, sm := range sms {
			if sm.Done() {
				continue
			}
			anyLive = true
			w := wake[i]
			if w <= cycle+1 {
				return cycle
			}
			if w < next {
				next = w
			}
		}
		if !anyLive && memSys.Drained() && !net.Pending() {
			return cycle
		}
		t0 := time.Now()
		ev := memSys.NextEventCycle(cycle)
		t1 := time.Now()
		dl := net.NextDeliveryCycle(cycle)
		t.dramNext += t1.Sub(t0)
		t.nocNext += time.Since(t1)
		if ev >= 0 && ev < next {
			next = ev
		}
		if dl >= 0 && dl < next {
			next = dl
		}
		if next <= cycle+1 {
			return cycle
		}
		from, to := cycle+1, next-1
		for _, sm := range sms {
			if !sm.Done() {
				t0 := time.Now()
				sm.SkipIdle(from, to)
				t.coreSkip += time.Since(t0)
				t.skipCalls++
			}
		}
		t.skipped += to - from + 1
		return to
	}

	start := time.Now()
	var cycle int64
	for ; ; cycle++ {
		if cycle >= maxCycles {
			break
		}
		t0 := time.Now()
		resps := memSys.Tick(cycle)
		t.dramTick += time.Since(t0)
		for _, r := range resps {
			t0 := time.Now()
			net.Enqueue(r)
			t.nocEnqueue += time.Since(t0)
			t.enqueueCalls++
		}
		allDone := true
		for i, sm := range sms {
			t0 := time.Now()
			resp := net.Deliver(i, cycle)
			t.nocDeliver += time.Since(t0)
			t.deliverCalls++
			for _, r := range resp {
				req0 := t.dramRequest
				t0 := time.Now()
				sm.HandleFill(r, cycle)
				t.coreFill += time.Since(t0) - (t.dramRequest - req0)
				t.fillCalls++
			}
			if sm.Done() {
				continue
			}
			allDone = false
			if len(resp) == 0 && wake[i] > cycle {
				t0 := time.Now()
				sm.SkipIdle(cycle, cycle)
				t.coreSkip += time.Since(t0)
				t.skipCalls++
				continue
			}
			req0 := t.dramRequest
			t0 = time.Now()
			sm.Tick(cycle)
			wake[i] = sm.NextWakeup(cycle)
			t.coreTick += time.Since(t0) - (t.dramRequest - req0)
			t.tickCalls++
		}
		if allDone && memSys.Drained() && !net.Pending() {
			break
		}
		cycle = skipTo(cycle)
	}
	t.loop = time.Since(start)
	t.cycles = cycle

	res := mirrorResult{Cycles: cycle, PerSM: make([]stats.Stats, len(sms))}
	for i, sm := range sms {
		sm.FinalizePrefetchStats()
		res.PerSM[i] = smStats[i]
		res.Total.Add(&smStats[i])
	}
	net.FlushStats()
	res.Total.Add(&shared)
	res.Total.Cycles = cycle
	return res, t, nil
}
