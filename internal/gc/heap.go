// Package gc implements the partitioned copying garbage collector the paper
// evaluates its rate policies in (the collector of Cook, Wolf, Zorn,
// SIGMOD'94): a Cheney breadth-first copying collector that compacts one
// partition at a time, with per-partition remembered sets so that pointers
// entering a partition from outside act as collection roots.
//
// The package also maintains the two bookkeeping streams the rate policies
// feed on:
//
//   - per-partition pointer-overwrite counters (the paper's fine-grain
//     state, shared with the UPDATEDPOINTER partition-selection policy), and
//   - oracle garbage accounting: the simulator reports exactly which
//     objects each overwrite made unreachable, so "actual garbage" is known
//     at all times. The collector itself never consults the oracle.
package gc

import (
	"fmt"
	"slices"

	"odbgc/internal/objstore"
	"odbgc/internal/storage"
)

// Heap couples the logical object store with its physical placement and
// carries the collector state: remembered sets, overwrite counters, and the
// oracle garbage ledger.
type Heap struct {
	store *objstore.Store
	disk  *storage.Manager

	// remset[dst][src] counts pointer slots in object src that reference
	// object dst placed in another partition. Objects never change
	// partition, so the entry needs no partition key: dst's placement
	// names the partition whose collection treats dst as a root.
	remset map[objstore.OID]map[objstore.OID]int

	// po[p] counts pointer overwrites whose old target lay in partition p
	// since p was last collected (the paper's FGS state; also drives
	// UPDATEDPOINTER selection).
	po []int

	// totalOverwrites is the SAGA clock: every non-initializing pointer
	// overwrite ticks it once.
	totalOverwrites uint64

	// Oracle ledger. oracleDead holds objects known unreachable but not yet
	// reclaimed; oracleDeadBytes[p] sums their bytes in partition p.
	oracleDead       map[objstore.OID]struct{}
	oracleDeadBytes  []int
	totalGarbage     uint64 // cumulative bytes of garbage ever created
	totalCollected   uint64 // cumulative bytes reclaimed by the collector
	totalCollections uint64

	// physicalFixups, when true, charges collector I/O for rewriting every
	// external object whose pointers into a compacted partition must be
	// updated (a physical-pointer store). The default models the common
	// ODBMS design of logical OIDs resolved through a resident object
	// table, where relocation within a partition costs no extra page I/O.
	physicalFixups bool

	// oracleless, when true, runs the heap without the trace oracle: live
	// servers have no replay annotations telling them which overwrite killed
	// which object, so Collect discovers garbage by tracing alone and the
	// cumulative-garbage ledger advances at reclaim time instead of at
	// garbage-creation time. ActualGarbageBytes reports zero in this mode —
	// exactly the paper's online setting, where true garbage is unknowable
	// and the estimators exist to approximate it.
	oracleless bool

	// retry, when non-nil, wraps each retryable storage operation the
	// collector issues. The simulator injects a transient-fault retrier here
	// (see package fault); the heap itself stays ignorant of fault policy.
	retry func(op string, fn func() error) error

	// durable, when non-nil, receives a WAL record for every logical
	// mutation (alloc, pointer store, root change, reclaim). The heap never
	// calls Commit — the owner (server engine, simulator) decides batch
	// boundaries, so a crash can only lose whole uncommitted batches.
	durable storage.Backend

	// scratch holds Collect's per-collection working sets, reused across
	// collections so steady-state collection stops allocating. Valid only
	// within one Collect call.
	scratch collectScratch
}

// collectScratch is the collector's reusable working memory: the slices are
// truncated at the start of every collection.
type collectScratch struct {
	members   []objstore.OID // the partition's objects, ascending
	seen      []bool         // seen[i] marks members[i] as reached
	queue     []objstore.OID // Cheney queue: roots first, then the copy order
	deadList  []objstore.OID
	fixupList []objstore.OID
}

// NewHeap wraps a store and a storage manager. Both must start empty or the
// heap's incremental bookkeeping will not match their contents.
func NewHeap(store *objstore.Store, disk *storage.Manager) *Heap {
	h := &Heap{
		store:      store,
		disk:       disk,
		remset:     make(map[objstore.OID]map[objstore.OID]int),
		oracleDead: make(map[objstore.OID]struct{}),
	}
	h.growPartitions()
	return h
}

// growPartitions extends the per-partition counters to cover every
// partition the storage manager has allocated. Partitions are never
// deallocated, so the counters only grow.
func (h *Heap) growPartitions() {
	for len(h.po) < h.disk.NumPartitions() {
		h.po = append(h.po, 0)
		h.oracleDeadBytes = append(h.oracleDeadBytes, 0)
	}
}

// Store returns the logical object store.
func (h *Heap) Store() *objstore.Store { return h.store }

// SetDurable attaches a write-ahead-logging backend: from now on every
// logical mutation is logged before the heap reports it done. Attach before
// the first mutation (or right after rebuilding the heap from the backend's
// recovered state) — records are not emitted retroactively.
func (h *Heap) SetDurable(b storage.Backend) { h.durable = b }

// Durable returns the attached durability backend, or nil.
func (h *Heap) Durable() storage.Backend { return h.durable }

// SetPhysicalFixups switches pointer-fixup I/O charging on or off (see the
// physicalFixups field). Used by the fixup-cost ablation benchmark.
func (h *Heap) SetPhysicalFixups(on bool) { h.physicalFixups = on }

// SetOracleless switches the heap into live (oracle-free) operation: no
// RecordOracleDead calls are expected, Collect reclaims whatever tracing
// finds without demanding the oracle knew it first, and CheckOracleComplete
// becomes a no-op. Flip it before the first overwrite; toggling mid-run
// would leave the garbage ledger split between the two accounting schemes.
func (h *Heap) SetOracleless(on bool) { h.oracleless = on }

// Oracleless reports whether the heap runs without the trace oracle.
func (h *Heap) Oracleless() bool { return h.oracleless }

// Disk returns the physical storage manager.
func (h *Heap) Disk() *storage.Manager { return h.disk }

// SetRetry installs a wrapper around the collector's retryable storage
// operations (partition scans, compaction, flushes). A nil wrapper means
// operations run exactly once. Storage operations fail before mutating any
// state, so re-running fn after a transient error is safe.
func (h *Heap) SetRetry(retry func(op string, fn func() error) error) { h.retry = retry }

// Call sites test h.retry for nil inline rather than through a helper: the
// nil fast path then never constructs the operation closure, so the common
// (fault-free) configuration allocates nothing per storage operation.

// Create allocates an object logically and physically. It validates the
// request before mutating anything, so a rejected create leaves the store,
// the placement table and the WAL untouched.
func (h *Heap) Create(oid objstore.OID, class objstore.Class, size, nslots int) error {
	pageSize := h.disk.Config().PageSize
	if size <= 0 || size > pageSize {
		return fmt.Errorf("gc: create %v: size %d outside (0, %d]", oid, size, pageSize)
	}
	// An object's pointer slots are part of it, and an object never spans
	// a page.
	if nslots < 0 || nslots > pageSize/8 {
		return fmt.Errorf("gc: create %v: %d slots outside [0, %d]", oid, nslots, pageSize/8)
	}
	if _, placed := h.disk.PartitionOf(oid); placed {
		return fmt.Errorf("gc: create %v: object already placed", oid)
	}
	if _, err := h.store.CreateWithOID(oid, class, size, nslots); err != nil {
		return err
	}
	if h.durable != nil {
		if err := h.durable.LogAlloc(oid, class, size, nslots); err != nil {
			return fmt.Errorf("gc: log alloc %v: %w", oid, err)
		}
	}
	var err error
	if h.retry == nil {
		_, err = h.disk.Allocate(oid, size)
	} else {
		//lint:allow hotalloc closure built only when fault-injection retry is installed
		err = h.retry("alloc", func() error {
			_, err := h.disk.Allocate(oid, size)
			return err
		})
	}
	h.growPartitions()
	return err
}

// AddRoot registers oid as a persistent root, logging the change when a
// durability backend is attached. Callers that care about crash safety must
// use this rather than Store().AddRoot.
func (h *Heap) AddRoot(oid objstore.OID) error {
	if err := h.store.AddRoot(oid); err != nil {
		return err
	}
	if h.durable != nil {
		if err := h.durable.LogRoot(oid, true); err != nil {
			return fmt.Errorf("gc: log root %v: %w", oid, err)
		}
	}
	return nil
}

// RemoveRoot unregisters a persistent root, logging the change when a
// durability backend is attached.
func (h *Heap) RemoveRoot(oid objstore.OID) error {
	h.store.RemoveRoot(oid)
	if h.durable != nil {
		if err := h.durable.LogRoot(oid, false); err != nil {
			return fmt.Errorf("gc: log unroot %v: %w", oid, err)
		}
	}
	return nil
}

// Access simulates a read of an object.
func (h *Heap) Access(oid objstore.OID) error {
	if h.store.Get(oid) == nil {
		return fmt.Errorf("gc: access of absent object %v", oid)
	}
	if h.retry == nil {
		return h.disk.Touch(oid, false)
	}
	//lint:allow hotalloc closure built only when fault-injection retry is installed
	return h.retry("read", func() error { return h.disk.Touch(oid, false) })
}

// Update simulates a non-pointer write to an object.
func (h *Heap) Update(oid objstore.OID) error {
	if h.store.Get(oid) == nil {
		return fmt.Errorf("gc: update of absent object %v", oid)
	}
	if h.retry == nil {
		return h.disk.Touch(oid, true)
	}
	//lint:allow hotalloc closure built only when fault-injection retry is installed
	return h.retry("update", func() error { return h.disk.Touch(oid, true) })
}

// Overwrite applies a pointer overwrite: slot i of src now points at dst
// (possibly nil). init marks the initializing stores that wire up a freshly
// created object; those maintain the graph and dirty pages but do not count
// as overwrites for the rate policies (they cannot create garbage).
// The recorded old value from the trace is checked against the store.
func (h *Heap) Overwrite(src objstore.OID, slot int, wantOld, dst objstore.OID, init bool) error {
	// Validate the recorded old value and every placement before mutating
	// anything, so a corrupt trace cannot leave the slot half-applied.
	o := h.store.Get(src)
	if o == nil {
		return fmt.Errorf("gc: overwrite on absent object %v", src)
	}
	if slot < 0 || slot >= len(o.Slots) {
		return fmt.Errorf("gc: overwrite slot %d out of range on %v", slot, src)
	}
	if o.Slots[slot] != wantOld {
		return fmt.Errorf("gc: overwrite %v[%d]: trace says old=%v, store has %v",
			src, slot, wantOld, o.Slots[slot])
	}
	srcPart, ok := h.disk.PartitionOf(src)
	if !ok {
		return fmt.Errorf("gc: overwrite source %v has no placement", src)
	}
	oldPart, ok := h.disk.PartitionOf(wantOld)
	if !ok && !wantOld.IsNil() {
		return fmt.Errorf("gc: old target %v has no placement", wantOld)
	}
	dstPart, ok := h.disk.PartitionOf(dst)
	if !ok && !dst.IsNil() {
		return fmt.Errorf("gc: new target %v has no placement", dst)
	}
	old, err := h.store.SetSlot(src, slot, dst)
	if err != nil {
		return err
	}
	if h.durable != nil {
		if err := h.durable.LogSet(src, slot, dst); err != nil {
			return fmt.Errorf("gc: log set %v[%d]: %w", src, slot, err)
		}
	}
	if h.retry == nil {
		err = h.disk.Touch(src, true)
	} else {
		//lint:allow hotalloc closure built only when fault-injection retry is installed
		err = h.retry("overwrite", func() error { return h.disk.Touch(src, true) })
	}
	if err != nil {
		return err
	}
	if !old.IsNil() {
		if oldPart != srcPart {
			h.remsetRemove(old, src)
		}
		if !init {
			h.po[oldPart]++
		}
	}
	if !dst.IsNil() && dstPart != srcPart {
		h.remsetAdd(dst, src)
	}
	if !init {
		h.totalOverwrites++
	}
	return nil
}

func (h *Heap) remsetAdd(dst, src objstore.OID) {
	srcs := h.remset[dst]
	if srcs == nil {
		//lint:allow hotalloc amortized: one map per remembered target, reused until collection
		srcs = make(map[objstore.OID]int)
		h.remset[dst] = srcs
	}
	srcs[src]++
}

func (h *Heap) remsetRemove(dst, src objstore.OID) {
	srcs := h.remset[dst]
	if srcs == nil {
		return
	}
	if srcs[src] <= 1 {
		delete(srcs, src)
		if len(srcs) == 0 {
			delete(h.remset, dst)
		}
	} else {
		srcs[src]--
	}
}

// ExternallyReferenced reports whether dst (in partition p) has remembered
// external references. Remembered sets are kept per target object, so p
// is not consulted: dst's placement already determines it.
func (h *Heap) ExternallyReferenced(p storage.PartitionID, dst objstore.OID) bool {
	return len(h.remset[dst]) > 0
}

// RecordOracleDead registers objects the trace oracle declared unreachable.
// The collector will eventually rediscover and reclaim them by tracing.
func (h *Heap) RecordOracleDead(dead []objstore.OID) error {
	for _, oid := range dead {
		if _, dup := h.oracleDead[oid]; dup {
			return fmt.Errorf("gc: object %v declared dead twice", oid)
		}
		o := h.store.Get(oid)
		if o == nil {
			return fmt.Errorf("gc: oracle-dead object %v not in store", oid)
		}
		p, ok := h.disk.PartitionOf(oid)
		if !ok {
			return fmt.Errorf("gc: oracle-dead object %v has no placement", oid)
		}
		h.oracleDead[oid] = struct{}{}
		h.oracleDeadBytes[p] += o.Size
		h.totalGarbage += uint64(o.Size)
	}
	return nil
}

// ActualGarbageBytes returns the oracle's exact count of unreclaimed
// garbage bytes in the database: garbage created minus garbage collected
// (the ledger identity CheckInvariants enforces against the per-partition
// counts). In oracleless mode both sides advance at reclaim time, so it is
// zero.
func (h *Heap) ActualGarbageBytes() int { return int(h.totalGarbage - h.totalCollected) }

// OracleGarbageIn returns the exact garbage bytes in one partition.
func (h *Heap) OracleGarbageIn(p storage.PartitionID) int {
	if p < 0 || int(p) >= len(h.oracleDeadBytes) {
		return 0
	}
	return h.oracleDeadBytes[p]
}

// PinnedGarbageBytes returns the bytes of known garbage that the collector
// could not reclaim right now even if it collected the right partition:
// dead objects held live by remembered-set entries (references from other
// partitions, themselves possibly dead). This quantifies partitioned
// collection's conservatism — cross-partition dead chains release one
// segment per collection, and dead cross-partition cycles never release.
func (h *Heap) PinnedGarbageBytes() int {
	pinned := 0
	for oid := range h.oracleDead {
		if len(h.remset[oid]) > 0 {
			if o := h.store.Get(oid); o != nil {
				pinned += o.Size
			}
		}
	}
	return pinned
}

// TotalGarbageBytes returns cumulative garbage ever created (oracle).
func (h *Heap) TotalGarbageBytes() uint64 { return h.totalGarbage }

// TotalCollectedBytes returns cumulative bytes reclaimed by the collector.
func (h *Heap) TotalCollectedBytes() uint64 { return h.totalCollected }

// Collections returns how many collections have run.
func (h *Heap) Collections() uint64 { return h.totalCollections }

// OverwriteClock returns the SAGA time base: total non-init overwrites.
func (h *Heap) OverwriteClock() uint64 { return h.totalOverwrites }

// PartitionOverwrites returns the FGS counter of one partition.
func (h *Heap) PartitionOverwrites(p storage.PartitionID) int {
	if p < 0 || int(p) >= len(h.po) {
		return 0
	}
	return h.po[p]
}

// SumPartitionOverwrites returns Σ_p PO(p), the FGS state total.
func (h *Heap) SumPartitionOverwrites() int {
	n := 0
	for _, v := range h.po {
		n += v
	}
	return n
}

// DatabaseBytes returns occupied bytes (live + garbage): the SAGA notion of
// database size.
func (h *Heap) DatabaseBytes() int { return h.disk.OccupiedBytes() }

// NumPartitions returns the number of allocated partitions (the CGS/CB
// estimator's coarse-grain state).
func (h *Heap) NumPartitions() int { return h.disk.NumPartitions() }

// CollectionResult describes one collection.
type CollectionResult struct {
	Partition        storage.PartitionID
	PartitionPO      int // FGS counter of the partition at collection time
	ReclaimedBytes   int
	ReclaimedObjects int
	LiveBytes        int
	LiveObjects      int
	IO               storage.IOStats // I/O delta attributable to this collection
}

// Collect garbage-collects one partition: scan, Cheney copy from the
// partition roots (database roots plus remembered external references),
// compact survivors, fix external pointers, and flush collector-dirtied
// pages. All I/O is charged to the collector.
func (h *Heap) Collect(p storage.PartitionID) (CollectionResult, error) {
	if p < 0 || int(p) >= h.disk.NumPartitions() {
		return CollectionResult{}, fmt.Errorf("gc: collect of unknown partition %d", p)
	}
	before := h.disk.Stats()
	prevClass := h.disk.SetIOClass(storage.IOGC)
	defer h.disk.SetIOClass(prevClass)

	// Scan the partition.
	var err error
	if h.retry == nil {
		err = h.disk.ReadPartition(p)
	} else {
		//lint:allow hotalloc closure built only when fault-injection retry is installed
		err = h.retry("scan", func() error { return h.disk.ReadPartition(p) })
	}
	if err != nil {
		return CollectionResult{}, err
	}

	// All working sets below live in the reusable scratch. Members are
	// ascending, so a member's position is found by binary search and
	// indexes the seen marks.
	sc := &h.scratch
	members := h.disk.AppendObjectsIn(sc.members[:0], p)
	sc.members = members
	seen := slices.Grow(sc.seen[:0], len(members))[:len(members)]
	sc.seen = seen
	clear(seen)

	// Partition roots: database roots and externally referenced objects.
	// They seed the traversal queue; live objects are appended behind them.
	queue := sc.queue[:0]
	for i, oid := range members {
		if h.store.IsRoot(oid) || h.ExternallyReferenced(p, oid) {
			queue = append(queue, oid)
			seen[i] = true
		}
	}

	// Cheney breadth-first copy within the partition. The queue is the
	// copy order; pointers leaving the partition are not traversed.
	liveBytes := 0
	for head := 0; head < len(queue); head++ {
		o := h.store.Get(queue[head])
		if o == nil {
			return CollectionResult{}, fmt.Errorf("gc: placed object %v missing from store", queue[head])
		}
		liveBytes += o.Size
		for _, t := range o.Slots {
			if t.IsNil() {
				continue
			}
			i, inPart := slices.BinarySearch(members, t)
			if !inPart || seen[i] {
				continue
			}
			seen[i] = true
			queue = append(queue, t)
		}
	}
	sc.queue = queue
	live := queue

	// Everything unreached is garbage. Tear down its bookkeeping before
	// compaction removes its placement.
	deadList := sc.deadList[:0]
	for i, oid := range members {
		if !seen[i] {
			deadList = append(deadList, oid)
		}
	}
	sc.deadList = deadList

	// Log the whole reclaim as one WAL record before any object leaves the
	// store: either the commit containing it lands and every reclaimed
	// object stays dead across a crash, or the batch is lost and recovery
	// resurrects none of them piecemeal.
	if h.durable != nil && len(deadList) > 0 {
		if err := h.durable.LogReclaim(deadList); err != nil {
			return CollectionResult{}, fmt.Errorf("gc: log reclaim of %d objects: %w", len(deadList), err)
		}
	}

	reclaimedBytes := 0
	for _, oid := range deadList {
		o := h.store.Get(oid)
		if o == nil {
			return CollectionResult{}, fmt.Errorf("gc: dead object %v missing from store", oid)
		}
		reclaimedBytes += o.Size
		// A dead object's outgoing cross-partition references leave the
		// remembered sets, which may unpin garbage in other partitions.
		for _, t := range o.Slots {
			if t.IsNil() {
				continue
			}
			tp, ok := h.disk.PartitionOf(t)
			if !ok {
				return CollectionResult{}, fmt.Errorf("gc: dead object %v references unplaced %v", oid, t)
			}
			if tp != p {
				h.remsetRemove(t, oid)
			}
		}
		// The oracle must have known: partitioned tracing is conservative
		// with respect to true reachability. In oracleless (live) mode the
		// collector is the discoverer: garbage enters the cumulative ledger
		// the moment it is reclaimed, keeping created−collected==outstanding.
		if _, known := h.oracleDead[oid]; !known {
			if !h.oracleless {
				return CollectionResult{}, fmt.Errorf("gc: collector reclaimed %v which the oracle believes live", oid)
			}
			h.totalGarbage += uint64(o.Size)
		} else {
			delete(h.oracleDead, oid)
			h.oracleDeadBytes[p] -= o.Size
		}
		if err := h.store.Remove(oid); err != nil {
			return CollectionResult{}, err
		}
		// Collected as it leaves the store, so created−collected stays the
		// outstanding garbage even if the collection fails part-way.
		h.totalCollected += uint64(o.Size)
	}
	if len(deadList) > 0 && h.oracleDeadBytes[p] < 0 {
		return CollectionResult{}, fmt.Errorf("gc: negative oracle garbage in partition %d", p)
	}

	// Compact survivors in copy order. The traversal found every survivor
	// in the store, so the sizeOf callback cannot miss.
	if h.retry == nil {
		_, err = h.disk.Compact(p, live, func(oid objstore.OID) int { return h.store.Get(oid).Size })
	} else {
		//lint:allow hotalloc closure built only when fault-injection retry is installed
		err = h.retry("compact", func() error {
			_, err := h.disk.Compact(p, live, func(oid objstore.OID) int { return h.store.Get(oid).Size })
			return err
		})
	}
	if err != nil {
		return CollectionResult{}, err
	}

	// Surviving objects moved. With physical pointers, every external
	// referencing object must be rewritten; with logical OIDs (the
	// default), only the resident object table changes, at no I/O cost.
	if h.physicalFixups {
		fixupList := sc.fixupList[:0]
		for _, dst := range live {
			for src := range h.remset[dst] {
				fixupList = append(fixupList, src)
			}
		}
		slices.Sort(fixupList)
		fixupList = slices.Compact(fixupList)
		sc.fixupList = fixupList
		for _, src := range fixupList {
			if h.retry == nil {
				err = h.disk.Touch(src, true)
			} else {
				//lint:allow hotalloc closure built only when fault-injection retry is installed
				err = h.retry("fixup", func() error { return h.disk.Touch(src, true) })
			}
			if err != nil {
				return CollectionResult{}, err
			}
		}
	}

	// Write back what the collector dirtied.
	if h.retry == nil {
		_, err = h.disk.FlushGCDirty()
	} else {
		//lint:allow hotalloc closure built only when fault-injection retry is installed
		err = h.retry("flush", func() error {
			_, err := h.disk.FlushGCDirty()
			return err
		})
	}
	if err != nil {
		return CollectionResult{}, err
	}

	po := h.po[p]
	h.po[p] = 0
	h.totalCollections++

	return CollectionResult{
		Partition:        p,
		PartitionPO:      po,
		ReclaimedBytes:   reclaimedBytes,
		ReclaimedObjects: len(deadList),
		LiveBytes:        liveBytes,
		LiveObjects:      len(live),
		IO:               h.disk.Stats().Sub(before),
	}, nil
}

// CheckInvariants cross-validates the heap's incremental bookkeeping against
// ground truth recomputed from the store. Expensive; used in tests.
func (h *Heap) CheckInvariants() error {
	if err := h.disk.CheckInvariants(); err != nil {
		return err
	}
	// Rebuild remembered sets from scratch and compare.
	want := make(map[objstore.OID]map[objstore.OID]int)
	var rebuildErr error
	h.store.ForEach(func(o *objstore.Object) {
		if rebuildErr != nil {
			return
		}
		srcPart, ok := h.disk.PartitionOf(o.OID)
		if !ok {
			rebuildErr = fmt.Errorf("gc: object %v in store but not placed", o.OID)
			return
		}
		for _, t := range o.Slots {
			if t.IsNil() {
				continue
			}
			tPart, ok := h.disk.PartitionOf(t)
			if !ok {
				rebuildErr = fmt.Errorf("gc: object %v references unplaced %v", o.OID, t)
				return
			}
			if tPart == srcPart {
				continue
			}
			srcs := want[t]
			if srcs == nil {
				srcs = make(map[objstore.OID]int)
				want[t] = srcs
			}
			srcs[o.OID]++
		}
	})
	if rebuildErr != nil {
		return rebuildErr
	}
	for dst, srcs := range h.remset {
		for src, n := range srcs {
			if want[dst][src] != n {
				return fmt.Errorf("gc: remset[%v][%v]=%d, ground truth %d", dst, src, n, want[dst][src])
			}
		}
	}
	for dst, srcs := range want {
		for src, n := range srcs {
			if h.remset[dst][src] != n {
				return fmt.Errorf("gc: remset[%v][%v] missing entry with ground truth %d", dst, src, n)
			}
		}
	}
	// Oracle ledger consistency.
	sum := 0
	for p, b := range h.oracleDeadBytes {
		if b < 0 {
			return fmt.Errorf("gc: negative oracle garbage %d in partition %d", b, p)
		}
		sum += b
	}
	check := 0
	for oid := range h.oracleDead {
		o := h.store.Get(oid)
		if o == nil {
			return fmt.Errorf("gc: oracle-dead object %v missing from store", oid)
		}
		check += o.Size
	}
	if sum != check {
		return fmt.Errorf("gc: oracle garbage bytes %d disagree with dead set total %d", sum, check)
	}
	if h.totalGarbage-h.totalCollected != uint64(sum) {
		return fmt.Errorf("gc: ledger mismatch: created %d - collected %d != outstanding %d",
			h.totalGarbage, h.totalCollected, sum)
	}
	// Every oracle-dead object must be truly unreachable (soundness).
	live := h.store.Reachable()
	for oid := range h.oracleDead {
		if _, isLive := live[oid]; isLive {
			return fmt.Errorf("gc: oracle-dead object %v is reachable", oid)
		}
	}
	return nil
}

// CheckOracleComplete verifies the converse of CheckInvariants' soundness
// check: every unreachable object is known dead to the oracle. This holds
// at the simulator's collection-safe points when replaying a well-formed
// trace, but not in hand-built heaps with untracked garbage — and not in
// oracleless (live) mode, where unreclaimed garbage is by design unknown;
// there the check passes vacuously.
func (h *Heap) CheckOracleComplete() error {
	if h.oracleless {
		return nil
	}
	live := h.store.Reachable()
	deadCount := 0
	var sample objstore.OID
	h.store.ForEach(func(o *objstore.Object) {
		if _, isLive := live[o.OID]; !isLive {
			deadCount++
			sample = o.OID
		}
	})
	if deadCount != len(h.oracleDead) {
		return fmt.Errorf("gc: %d unreachable objects but oracle knows %d (e.g. %v)",
			deadCount, len(h.oracleDead), sample)
	}
	return nil
}
