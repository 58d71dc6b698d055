package mem

import "apres/internal/arch"

// lineTable is an open-addressed hash table keyed by line address: linear
// probing, a multiplicative (Fibonacci) hash, and backward-shift deletion,
// so no tombstones accumulate and a lookup stops at the first empty slot.
// Keys are stored as line+1, reserving 0 for an empty slot; line addresses
// are byte addresses divided by the line size, so line+1 never wraps.
//
// lineTable[struct{}] is a keys-only set: a slice of zero-size values costs
// no memory, which matters for the classification sets that grow with the
// workload's footprint. The table doubles when it passes 3/4 full.
type lineTable[V any] struct {
	keys  []uint64
	vals  []V
	n     int
	shift uint // 64 - log2(len(keys))
}

// lineSet is a keys-only lineTable.
type lineSet = lineTable[struct{}]

// newLineTable returns a table that holds capacity entries without growing.
func newLineTable[V any](capacity int) lineTable[V] {
	size, shift := 8, uint(61)
	for size*3/4 < capacity {
		size *= 2
		shift--
	}
	return lineTable[V]{keys: make([]uint64, size), vals: make([]V, size), shift: shift}
}

func (t *lineTable[V]) home(k uint64) int {
	return int((k * 0x9E3779B97F4A7C15) >> t.shift)
}

// find returns the slot holding l, or the empty slot where l would go.
func (t *lineTable[V]) find(l arch.LineAddr) (int, bool) {
	k := uint64(l) + 1
	mask := len(t.keys) - 1
	for i := t.home(k); ; i = (i + 1) & mask {
		switch t.keys[i] {
		case k:
			return i, true
		case 0:
			return i, false
		}
	}
}

// has reports whether l is present.
func (t *lineTable[V]) has(l arch.LineAddr) bool {
	_, ok := t.find(l)
	return ok
}

// get returns l's value and whether l is present.
func (t *lineTable[V]) get(l arch.LineAddr) (V, bool) {
	i, ok := t.find(l)
	return t.vals[i], ok
}

// put sets l's value and reports whether l was newly added.
func (t *lineTable[V]) put(l arch.LineAddr, v V) bool {
	i, ok := t.find(l)
	if !ok {
		if (t.n+1)*4 > len(t.keys)*3 {
			t.grow()
			i, _ = t.find(l)
		}
		t.keys[i] = uint64(l) + 1
		t.n++
	}
	t.vals[i] = v
	return !ok
}

// add inserts l into a set and reports whether it was newly added.
func (t *lineTable[V]) add(l arch.LineAddr) bool {
	var zero V
	return t.put(l, zero)
}

// del removes l and reports whether it was present. Each entry after the
// hole up to the next empty slot moves back into the hole unless its home
// slot lies cyclically after the hole, which keeps every probe chain intact.
func (t *lineTable[V]) del(l arch.LineAddr) bool {
	i, ok := t.find(l)
	if !ok {
		return false
	}
	mask := len(t.keys) - 1
	for j := (i + 1) & mask; t.keys[j] != 0; j = (j + 1) & mask {
		if (j-t.home(t.keys[j]))&mask >= (j-i)&mask {
			t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
			i = j
		}
	}
	var zero V
	t.keys[i], t.vals[i] = 0, zero
	t.n--
	return true
}

func (t *lineTable[V]) grow() {
	keys, vals := t.keys, t.vals
	t.keys = make([]uint64, 2*len(keys))
	t.vals = make([]V, 2*len(vals))
	t.shift--
	mask := len(t.keys) - 1
	for i, k := range keys {
		if k == 0 {
			continue
		}
		j := t.home(k)
		for t.keys[j] != 0 {
			j = (j + 1) & mask
		}
		t.keys[j], t.vals[j] = k, vals[i]
	}
}
