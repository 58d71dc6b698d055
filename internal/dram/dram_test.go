package dram

import (
	"testing"
	"unsafe"

	"apres/internal/arch"
	"apres/internal/config"
	"apres/internal/stats"
)

func testConfig() config.Config {
	c := config.Baseline()
	c.DRAMPartitions = 2
	c.L2SizeBytes = 64 * 1024
	return c
}

func collectUntil(t *testing.T, m *MemSystem, start, limit int64) []Response {
	t.Helper()
	var all []Response
	for cyc := start; cyc < limit; cyc++ {
		all = append(all, m.Tick(cyc)...)
		if m.Drained() && len(all) > 0 {
			break
		}
	}
	return all
}

func TestL2MissGoesToDRAMWithMinLatency(t *testing.T) {
	cfg := testConfig()
	var st stats.Stats
	m := New(cfg, &st)
	req := arch.MemReq{Line: 100, Kind: arch.AccessLoad, SM: 3, IssueCycle: 0}
	m.Request(req, 0)
	rs := collectUntil(t, m, 0, 5000)
	if len(rs) != 1 {
		t.Fatalf("responses = %d, want 1", len(rs))
	}
	wantMin := int64(cfg.DRAMLatency)
	if rs[0].ReadyCycle < wantMin {
		t.Fatalf("ready at %d, want >= %d (DRAM latency)", rs[0].ReadyCycle, wantMin)
	}
	if rs[0].Req.SM != 3 {
		t.Fatalf("response routed to SM %d, want 3", rs[0].Req.SM)
	}
	if st.DRAMAccesses != 1 || st.L2Misses != 1 {
		t.Fatalf("stats: dram=%d l2miss=%d, want 1/1", st.DRAMAccesses, st.L2Misses)
	}
}

func TestL2HitIsFasterThanDRAM(t *testing.T) {
	cfg := testConfig()
	var st stats.Stats
	m := New(cfg, &st)
	req := arch.MemReq{Line: 100, Kind: arch.AccessLoad}
	m.Request(req, 0)
	collectUntil(t, m, 0, 5000)

	m.Request(req, 2000)
	rs := collectUntil(t, m, 2000, 7000)
	if len(rs) != 1 {
		t.Fatalf("responses = %d, want 1", len(rs))
	}
	got := rs[0].ReadyCycle - 2000
	if got != int64(cfg.L2Latency) {
		t.Fatalf("L2 hit latency = %d, want %d", got, cfg.L2Latency)
	}
	if st.GPUL2Hits != 1 {
		t.Fatalf("L2 hits = %d, want 1", st.GPUL2Hits)
	}
}

func TestMergingAtL2WakesAllWaiters(t *testing.T) {
	cfg := testConfig()
	var st stats.Stats
	m := New(cfg, &st)
	m.Request(arch.MemReq{Line: 100, Kind: arch.AccessLoad, SM: 0}, 0)
	m.Request(arch.MemReq{Line: 100, Kind: arch.AccessLoad, SM: 1}, 1)
	rs := collectUntil(t, m, 0, 5000)
	if len(rs) != 2 {
		t.Fatalf("responses = %d, want 2 (one per merged waiter)", len(rs))
	}
	if st.DRAMAccesses != 1 {
		t.Fatalf("DRAM accesses = %d, want 1 (merged)", st.DRAMAccesses)
	}
	sms := map[int]bool{rs[0].Req.SM: true, rs[1].Req.SM: true}
	if !sms[0] || !sms[1] {
		t.Fatalf("waiters woken for SMs %v, want 0 and 1", sms)
	}
}

func TestQueueingDelayUnderBandwidthPressure(t *testing.T) {
	cfg := testConfig()
	cfg.DRAMServiceInterval = 100
	var st stats.Stats
	m := New(cfg, &st)
	// Two distinct lines on the same partition (stride by partition count).
	m.Request(arch.MemReq{Line: 0, Kind: arch.AccessLoad}, 0)
	m.Request(arch.MemReq{Line: arch.LineAddr(cfg.DRAMPartitions), Kind: arch.AccessLoad}, 0)
	var rs []Response
	for cyc := int64(0); cyc < 10000 && len(rs) < 2; cyc++ {
		rs = append(rs, m.Tick(cyc)...)
	}
	if len(rs) != 2 {
		t.Fatalf("responses = %d, want 2", len(rs))
	}
	if st.DRAMQueueCycles < int64(cfg.DRAMServiceInterval) {
		t.Fatalf("queue cycles = %d, want >= %d", st.DRAMQueueCycles, cfg.DRAMServiceInterval)
	}
	gap := rs[1].ReadyCycle - rs[0].ReadyCycle
	if gap < int64(cfg.DRAMServiceInterval) {
		t.Fatalf("service gap = %d, want >= %d", gap, cfg.DRAMServiceInterval)
	}
}

func TestStoresConsumeBandwidthWithoutResponse(t *testing.T) {
	cfg := testConfig()
	var st stats.Stats
	m := New(cfg, &st)
	m.Request(arch.MemReq{Line: 0, Kind: arch.AccessStore}, 0)
	for cyc := int64(0); cyc < 2000; cyc++ {
		if rs := m.Tick(cyc); len(rs) != 0 {
			t.Fatalf("store produced a response: %+v", rs)
		}
	}
	if st.DRAMAccesses != 1 {
		t.Fatalf("DRAM accesses = %d, want 1", st.DRAMAccesses)
	}
}

func TestPartitionInterleaving(t *testing.T) {
	cfg := testConfig()
	var st stats.Stats
	m := New(cfg, &st)
	if m.PartitionOf(0) == m.PartitionOf(1) {
		t.Fatal("adjacent lines should map to different partitions")
	}
	if m.PartitionOf(0) != m.PartitionOf(arch.LineAddr(cfg.DRAMPartitions)) {
		t.Fatal("lines a partition-stride apart should share a partition")
	}
}

func TestDrained(t *testing.T) {
	cfg := testConfig()
	var st stats.Stats
	m := New(cfg, &st)
	if !m.Drained() {
		t.Fatal("fresh system should be drained")
	}
	m.Request(arch.MemReq{Line: 7, Kind: arch.AccessLoad}, 0)
	if m.Drained() {
		t.Fatal("system with in-flight request should not be drained")
	}
	collectUntil(t, m, 0, 5000)
	if !m.Drained() {
		t.Fatal("system should drain after responses complete")
	}
}

// An L2 hit's request waits in the hits slab while its event is queued: each
// response must carry its own request back in (cycle, seq) order, popped
// slots must be reused instead of the slab growing per hit, and the event
// the heap sifts must stay 32 bytes.
func TestL2HitSlabRoundTripAndReuse(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got != 32 {
		t.Fatalf("event is %d bytes, want 32", got)
	}
	cfg := testConfig()
	var st stats.Stats
	m := New(cfg, &st)
	const lines = 8
	for l := 0; l < lines; l++ {
		m.Request(arch.MemReq{Line: arch.LineAddr(l), Kind: arch.AccessLoad}, 0)
	}
	collectUntil(t, m, 0, 5000)
	for round := 0; round < 3; round++ {
		base := int64(10000 * (round + 1))
		var want []arch.MemReq
		for l := 0; l < lines; l++ {
			req := arch.MemReq{Line: arch.LineAddr(l), Kind: arch.AccessLoad, Warp: arch.WarpID(l),
				PC: arch.PC(100*round + l), SM: l % 3, IssueCycle: base + int64(l/2)}
			want = append(want, req)
			m.Request(req, req.IssueCycle)
		}
		rs := collectUntil(t, m, base, base+5000)
		if len(rs) != lines {
			t.Fatalf("round %d: %d responses, want %d", round, len(rs), lines)
		}
		for i, r := range rs {
			if r.Req != want[i] {
				t.Fatalf("round %d response %d: req %+v, want %+v", round, i, r.Req, want[i])
			}
			if r.ReadyCycle != want[i].IssueCycle+int64(cfg.L2Latency) {
				t.Fatalf("round %d response %d: ready %d, want %d", round, i, r.ReadyCycle,
					want[i].IssueCycle+int64(cfg.L2Latency))
			}
		}
	}
	if len(m.hits) != lines {
		t.Fatalf("hits slab holds %d slots after 3 rounds of %d hits, want %d", len(m.hits), lines, lines)
	}
}
