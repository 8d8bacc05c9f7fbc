package gc

import (
	"fmt"
	"sort"

	"odbgc/internal/objstore"
	"odbgc/internal/storage"
)

// RemsetEntry is one remembered-set counter in flattened, sortable form.
type RemsetEntry struct {
	Part  storage.PartitionID
	Dst   objstore.OID
	Src   objstore.OID
	Count int
}

// PartitionCounter pairs a partition with an integer counter (overwrites or
// oracle garbage bytes).
type PartitionCounter struct {
	Part  storage.PartitionID
	Value int
}

// HeapSnapshot is a checkpointable image of the collector bookkeeping plus
// the wrapped store and storage manager. Slices are sorted so the encoded
// form is deterministic.
type HeapSnapshot struct {
	Store *objstore.StoreSnapshot
	Disk  *storage.ManagerState

	Remset          []RemsetEntry
	Overwrites      []PartitionCounter // po, by partition
	TotalOverwrites uint64

	OracleDead      []objstore.OID // ascending
	OracleDeadBytes []PartitionCounter

	TotalGarbage     uint64
	TotalCollected   uint64
	TotalCollections uint64
	PhysicalFixups   bool
	Oracleless       bool
}

// counters lists the nonzero per-partition values in partition order.
func counters(vs []int) []PartitionCounter {
	var cs []PartitionCounter
	for p, v := range vs {
		if v != 0 {
			cs = append(cs, PartitionCounter{Part: storage.PartitionID(p), Value: v})
		}
	}
	return cs
}

// restoreCounters writes snapshot counters into the per-partition slice vs,
// rejecting partitions the restored storage manager does not have.
func restoreCounters(vs []int, cs []PartitionCounter, what string) error {
	for _, c := range cs {
		if c.Part < 0 || int(c.Part) >= len(vs) {
			return fmt.Errorf("gc: %s counter for unknown partition %d", what, c.Part)
		}
		vs[c.Part] = c.Value
	}
	return nil
}

// Snapshot captures the heap, its object store, and its storage manager.
func (h *Heap) Snapshot() *HeapSnapshot {
	st := &HeapSnapshot{
		Store:            h.store.Snapshot(),
		Disk:             h.disk.Snapshot(),
		TotalOverwrites:  h.totalOverwrites,
		TotalGarbage:     h.totalGarbage,
		TotalCollected:   h.totalCollected,
		TotalCollections: h.totalCollections,
		PhysicalFixups:   h.physicalFixups,
		Oracleless:       h.oracleless,
	}
	for dst, srcs := range h.remset {
		p, _ := h.disk.PartitionOf(dst)
		for src, n := range srcs {
			st.Remset = append(st.Remset, RemsetEntry{Part: p, Dst: dst, Src: src, Count: n})
		}
	}
	sort.Slice(st.Remset, func(i, j int) bool {
		a, b := st.Remset[i], st.Remset[j]
		if a.Part != b.Part {
			return a.Part < b.Part
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		return a.Src < b.Src
	})
	st.Overwrites = counters(h.po)
	for oid := range h.oracleDead {
		st.OracleDead = append(st.OracleDead, oid)
	}
	sort.Slice(st.OracleDead, func(i, j int) bool { return st.OracleDead[i] < st.OracleDead[j] })
	st.OracleDeadBytes = counters(h.oracleDeadBytes)
	return st
}

// RestoreHeap rebuilds a heap (with its store and storage manager) from a
// snapshot and cross-validates the result.
func RestoreHeap(st *HeapSnapshot) (*Heap, error) {
	if st == nil {
		return nil, fmt.Errorf("gc: nil heap snapshot")
	}
	store, err := objstore.RestoreStore(st.Store)
	if err != nil {
		return nil, err
	}
	disk, err := storage.RestoreManager(st.Disk)
	if err != nil {
		return nil, err
	}
	h := NewHeap(store, disk)
	h.physicalFixups = st.PhysicalFixups
	h.oracleless = st.Oracleless
	for _, e := range st.Remset {
		if e.Count <= 0 {
			return nil, fmt.Errorf("gc: non-positive remset count %d for %v->%v", e.Count, e.Src, e.Dst)
		}
		if p, ok := disk.PartitionOf(e.Dst); !ok || p != e.Part {
			return nil, fmt.Errorf("gc: remset entry %v->%v filed under partition %d, not its target's", e.Src, e.Dst, e.Part)
		}
		srcs := h.remset[e.Dst]
		if srcs == nil {
			srcs = make(map[objstore.OID]int)
			h.remset[e.Dst] = srcs
		}
		srcs[e.Src] = e.Count
	}
	if err := restoreCounters(h.po, st.Overwrites, "overwrite"); err != nil {
		return nil, err
	}
	for _, oid := range st.OracleDead {
		if store.Get(oid) == nil {
			return nil, fmt.Errorf("gc: oracle-dead object %v missing from snapshot store", oid)
		}
		h.oracleDead[oid] = struct{}{}
	}
	if err := restoreCounters(h.oracleDeadBytes, st.OracleDeadBytes, "oracle garbage"); err != nil {
		return nil, err
	}
	h.totalOverwrites = st.TotalOverwrites
	h.totalGarbage = st.TotalGarbage
	h.totalCollected = st.TotalCollected
	h.totalCollections = st.TotalCollections
	if err := h.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("gc: restored heap inconsistent: %w", err)
	}
	return h, nil
}
