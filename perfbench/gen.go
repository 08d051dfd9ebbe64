package main

import (
	"math/rand"
	"sync/atomic"
)

// poolBytes is the size of the seeded random byte pool every payload is
// cut from. A payload is a sub-slice of the pool, so the generator never
// copies or allocates in the measured loop.
const poolBytes = 1 << 20

// gen is the seeded input generator. Everything the file system receives
// (paths, payloads, op scripts) is derived from the seed and built
// before any timer starts.
type gen struct {
	seed uint64
	pool []byte
}

// newGen builds the pool; maxUnit is the largest payload any workload
// cuts from it.
func newGen(seed int64, maxUnit int) *gen {
	g := &gen{seed: uint64(seed)}
	g.pool = make([]byte, poolBytes+maxUnit)
	rand.New(rand.NewSource(seed)).Read(g.pool)
	return g
}

// mix is splitmix64's finalizer: a cheap, well-spread hash.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// content returns the payload of version ver of a unit (a whole file, or
// one block of a block-versioned file). It is a read-only view into the
// pool: distinct versions start at unrelated pool offsets, so a stale
// version never compares equal to the current one.
func (g *gen) content(unit uint32, ver uint32, size int) []byte {
	off := int(mix(g.seed^uint64(unit)<<32^uint64(ver)) % poolBytes)
	return g.pool[off : off+size : off+size]
}

// model is the generator's record of what every file should contain.
// Files are split into units (one per file, or one per block for
// block-versioned workloads); a unit's content is g.content(unit, ver).
// Version 0 means the file does not exist. Only a unit's owning client
// writes it: it raises inflight before the call and committed after, so
// a concurrent reader accepts any version in [committed before its read,
// inflight after it].
type model struct {
	unitsPerFile int
	unitSize     []int // per file: bytes per unit
	committed    []atomic.Uint32
	inflight     []atomic.Uint32
}

func newModel(files, unitsPerFile int) *model {
	return &model{
		unitsPerFile: unitsPerFile,
		unitSize:     make([]int, files),
		committed:    make([]atomic.Uint32, files*unitsPerFile),
		inflight:     make([]atomic.Uint32, files*unitsPerFile),
	}
}

func (m *model) fileSize(f int) int64 {
	if m.committed[f*m.unitsPerFile].Load() == 0 {
		return 0
	}
	return int64(m.unitSize[f] * m.unitsPerFile)
}

// liveBytes sums the sizes of the files that exist.
func (m *model) liveBytes() int64 {
	var n int64
	for f := range m.unitSize {
		n += m.fileSize(f)
	}
	return n
}

// begin marks a write of version ver to unit u as in flight.
func (m *model) begin(u int, ver uint32) { m.inflight[u].Store(ver) }

// commit marks the write as returned.
func (m *model) commit(u int, ver uint32) { m.committed[u].Store(ver) }

// matches reports whether data equals some version of unit u in [lo, hi],
// read at byte offset off within the unit.
func (g *gen) matches(u int, lo, hi uint32, size, off int, data []byte) bool {
	for v := lo; v <= hi; v++ {
		if v == 0 {
			if len(data) == 0 {
				return true
			}
			continue
		}
		want := g.content(uint32(u), v, size)[off:]
		if len(want) > len(data) {
			want = want[:len(data)]
		}
		if len(want) == len(data) && string(want) == string(data) {
			return true
		}
	}
	return false
}
