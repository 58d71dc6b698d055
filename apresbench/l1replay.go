package main

import (
	"fmt"
	"time"

	"apres/internal/arch"
	"apres/internal/config"
	"apres/internal/mem"
	"apres/internal/trace"
)

// l1Sink keeps the L1 demand and fill stream plus the scheduler and
// prefetcher decision events of a traced run, and only counts the rest,
// so a full-scale trace fits in memory.
type l1Sink struct {
	trace.CollectSink
	counts map[trace.Kind]int64
}

func newL1Sink() *l1Sink { return &l1Sink{counts: map[trace.Kind]int64{}} }

func (s *l1Sink) WriteEvents(b []trace.Event) error {
	for _, e := range b {
		s.counts[e.Kind]++
		switch e.Kind {
		case trace.KindL1Hit, trace.KindL1Miss, trace.KindMSHRMerge, trace.KindMSHRAlloc, trace.KindMSHRRetire:
			s.Events = append(s.Events, e)
		}
	}
	return nil
}

// l1Replay is the outcome of replaying a traced L1 stream.
type l1Replay struct {
	accesses, fills          int64
	accessTime, fillTime     time.Duration
	hits, misses, merges     int64
	tracedHits, tracedMisses int64
	tracedMerges             int64
}

// replayL1 feeds the traced stream into one fresh mem.Cache per SM, in
// emission order: each demand hit, miss or merge event becomes a demand
// Access, an MSHR allocation no demand miss announced becomes a prefetch
// Access, and each MSHR retirement becomes a Fill. Dropped prefetches and
// MSHR-full stalls leave no event and no cache state, so the replay sees
// the cache evolve exactly as the run did; the caller checks that the
// replay's hit, miss and merge counts equal the traced ones.
func replayL1(cfg config.Config, events []trace.Event) (l1Replay, error) {
	var out l1Replay
	caches := make([]*mem.Cache, cfg.NumSMs)
	for i := range caches {
		caches[i] = mem.NewCache(fmt.Sprintf("replay.L1.%d", i), cfg.L1SizeBytes, cfg.L1Ways, cfg.L1MSHRs)
	}
	// pendingMiss holds, per SM, the line of a demand miss whose MSHR
	// allocation event is still to come.
	pendingMiss := make([]uint64, cfg.NumSMs)
	hasPending := make([]bool, cfg.NumSMs)
	for _, e := range events {
		c := caches[e.Unit]
		req := arch.MemReq{Line: arch.LineAddr(e.Line), Kind: arch.AccessLoad, Warp: arch.WarpID(e.Warp), PC: arch.PC(e.PC), SM: int(e.Unit)}
		var want arch.AccessResult
		switch e.Kind {
		case trace.KindL1Hit:
			out.tracedHits++
			want = arch.ResultHit
		case trace.KindL1Miss:
			out.tracedMisses++
			want = arch.ResultMiss
			pendingMiss[e.Unit], hasPending[e.Unit] = e.Line, true
		case trace.KindMSHRMerge:
			out.tracedMerges++
			want = arch.ResultMergedMSHR
		case trace.KindMSHRAlloc:
			if hasPending[e.Unit] && pendingMiss[e.Unit] == e.Line {
				hasPending[e.Unit] = false
				continue
			}
			req.Kind = arch.AccessPrefetch
			want = arch.ResultMiss
		case trace.KindMSHRRetire:
			t0 := time.Now()
			fo := c.Fill(arch.LineAddr(e.Line), e.Cycle)
			out.fillTime += time.Since(t0)
			out.fills++
			if fo.Entry == nil {
				return out, fmt.Errorf("replay: fill of line %#x on SM %d found no MSHR entry", e.Line, e.Unit)
			}
			continue
		default:
			continue
		}
		t0 := time.Now()
		o := c.Access(req, e.Cycle)
		out.accessTime += time.Since(t0)
		out.accesses++
		if o.Result != want {
			return out, fmt.Errorf("replay: %v on line %#x SM %d cycle %d gave %v", e.Kind, e.Line, e.Unit, e.Cycle, o.Result)
		}
		if req.Kind == arch.AccessPrefetch {
			continue
		}
		switch o.Result {
		case arch.ResultHit:
			out.hits++
		case arch.ResultMiss:
			out.misses++
		case arch.ResultMergedMSHR:
			out.merges++
		}
	}
	return out, nil
}
