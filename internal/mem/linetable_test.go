package mem

import (
	"math/rand"
	"testing"

	"apres/internal/arch"
)

// TestLineTableMatchesMap drives a lineTable and a lineSet in lockstep with
// a Go map through random put/get/delete operations. The key range is small
// relative to the operation count, so the tables run near their 3/4 load
// limit: probe chains get long and wrap past the end of the slot array,
// deletes backward-shift through them, and every round regrows the tables
// from their minimum size.
func TestLineTableMatchesMap(t *testing.T) {
	const (
		rounds      = 16
		opsPerRound = 1 << 16 // 16 × 65,536 ≈ 1M operations
		keyRange    = 700
	)
	rng := rand.New(rand.NewSource(1))
	keyOf := func() arch.LineAddr {
		// Half the keys sit at the bottom of the line space (0 included:
		// it is stored as 1, next to the reserved empty value), half high.
		k := arch.LineAddr(rng.Intn(keyRange))
		if k%2 == 1 {
			k += 1 << 40
		}
		return k
	}
	grows := 0
	for round := 0; round < rounds; round++ {
		tab := newLineTable[int32](0)
		set := newLineTable[struct{}](0)
		oracle := map[arch.LineAddr]int32{}
		// Alternate put-heavy and delete-heavy rounds so the tables both
		// fill up and drain.
		putFrac := 0.7
		if round%2 == 1 {
			putFrac = 0.45
		}
		for op := 0; op < opsPerRound; op++ {
			k := keyOf()
			switch r := rng.Float64(); {
			case r < putFrac:
				v := int32(rng.Intn(1 << 20))
				_, had := oracle[k]
				size := len(tab.keys)
				if added := tab.put(k, v); added == had {
					t.Fatalf("round %d op %d: put(%d) added=%v, key was present=%v", round, op, k, added, had)
				}
				if len(tab.keys) != size {
					grows++
				}
				if added := set.add(k); added == had {
					t.Fatalf("round %d op %d: set add(%d) added=%v, key was present=%v", round, op, k, added, had)
				}
				oracle[k] = v
			case r < putFrac+0.15:
				v, ok := tab.get(k)
				want, wantOK := oracle[k]
				if ok != wantOK || (ok && v != want) {
					t.Fatalf("round %d op %d: get(%d) = %d,%v, want %d,%v", round, op, k, v, ok, want, wantOK)
				}
			default:
				_, had := oracle[k]
				if got := tab.del(k); got != had {
					t.Fatalf("round %d op %d: del(%d) = %v, want %v", round, op, k, got, had)
				}
				if got := set.del(k); got != had {
					t.Fatalf("round %d op %d: set del(%d) = %v, want %v", round, op, k, got, had)
				}
				delete(oracle, k)
			}
			if tab.n != len(oracle) || set.n != len(oracle) {
				t.Fatalf("round %d op %d: n = %d (set %d), want %d", round, op, tab.n, set.n, len(oracle))
			}
			want, wantOK := oracle[k]
			if v, ok := tab.get(k); ok != wantOK || v != want || set.has(k) != wantOK {
				t.Fatalf("round %d op %d: key %d out of sync after the operation", round, op, k)
			}
			if op%64 == 0 {
				checkLineTable(t, &tab, &set, oracle)
			}
		}
		checkLineTable(t, &tab, &set, oracle)
	}
	if grows < 3*rounds {
		t.Fatalf("tables grew %d times over %d rounds; the key range no longer exercises growth", grows, rounds)
	}
}

// checkLineTable compares every key of the range and the slot array itself
// against the oracle.
func checkLineTable(t *testing.T, tab *lineTable[int32], set *lineSet, oracle map[arch.LineAddr]int32) {
	t.Helper()
	for k, want := range oracle {
		if v, ok := tab.get(k); !ok || v != want {
			t.Fatalf("get(%d) = %d,%v, want %d,true", k, v, ok, want)
		}
		if !set.has(k) {
			t.Fatalf("set lost key %d", k)
		}
	}
	stored := 0
	for _, k := range tab.keys {
		if k != 0 {
			stored++
			if _, ok := oracle[arch.LineAddr(k-1)]; !ok {
				t.Fatalf("table holds deleted key %d", k-1)
			}
		}
	}
	if stored != len(oracle) {
		t.Fatalf("table stores %d keys, want %d", stored, len(oracle))
	}
}
