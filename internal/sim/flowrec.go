package sim

import (
	"fmt"

	"r2c2/internal/simtime"
	"r2c2/internal/topology"
	"r2c2/internal/wire"
)

// FlowRecord tracks one flow's life across any transport, for the
// experiment statistics (FCT of short flows, average throughput of long
// flows, completion accounting).
type FlowRecord struct {
	ID        wire.FlowID
	Src, Dst  topology.NodeID
	SizeBytes int64 // bytes the application wants delivered
	Started   simtime.Time
	Finished  simtime.Time // receiver got every byte
	Done      bool

	BytesRcvd  int64
	SenderDone bool // sender handed the last byte to the NIC
}

// FCT returns the flow completion time; it panics on incomplete flows.
func (r *FlowRecord) FCT() simtime.Time {
	if !r.Done {
		panic("sim: FCT of incomplete flow")
	}
	return r.Finished - r.Started
}

// Throughput returns the average goodput in bits/s.
func (r *FlowRecord) Throughput() float64 {
	if !r.Done || r.Finished == r.Started {
		return 0
	}
	return float64(r.SizeBytes*8) / (r.Finished - r.Started).Seconds()
}

// flowSlot is what a transport keeps per flow: the flow's record and the
// transport's own send and receive state (st), found together by one indexed
// load. A slot whose rec is nil names a flow this instance has not heard of.
type flowSlot[T any] struct {
	rec *FlowRecord
	st  T
}

// flowTable is a transport instance's per-flow state, indexed rather than
// hashed: a flow ID is its source and a per-source sequence number counting
// from zero, so rows[src][seq] is the flow's slot. Rows are sized up front
// from the arrival list's per-source counts (carveRows) and double past
// that. opened[src] is how many flows src has started here, its next
// sequence number.
type flowTable[T any] struct {
	rows   [][]flowSlot[T]
	opened []int
	flowLog
}

// flowLog is the part of a flow table the run loop reads, whatever the
// transport: order keeps the records of the flows started here in creation
// order — results are assembled from it — and done counts the flows whose last
// byte arrived here, so completion is a comparison per slice, not a scan.
type flowLog struct {
	order []*FlowRecord
	done  int
}

// finish records that the flow's last byte arrived at time at. Every flow
// finishes once, in the table of the shard that owns its destination.
func (l *flowLog) finish(rec *FlowRecord, at simtime.Time) {
	rec.Done, rec.Finished = true, at
	l.done++
}

func newFlowTable[T any](sources int) *flowTable[T] {
	return &flowTable[T]{rows: make([][]flowSlot[T], sources), opened: make([]int, sources)}
}

// carveRows sizes rows[src] for the perSrc[src] flows the source will start
// (from the arrival list), all rows from one array.
func carveRows[E any](rows [][]E, perSrc []int) {
	total := 0
	for _, n := range perSrc {
		total += n
	}
	backing := make([]E, total)
	for src, n := range perSrc {
		rows[src], backing = backing[:n:n], backing[n:]
	}
}

// get returns the flow's slot, or nil for a flow this instance never opened.
// The pointer is good until the next open.
func (t *flowTable[T]) get(id wire.FlowID) *flowSlot[T] {
	if src := int(id.Src()); src < len(t.rows) {
		if row, seq := t.rows[src], int(id.Seq()); seq < len(row) && row[seq].rec != nil {
			return &row[seq]
		}
	}
	return nil
}

// open starts src's next flow under the source's next sequence number and
// files its record in creation order.
func (t *flowTable[T]) open(src, dst topology.NodeID, size int64, at simtime.Time) *flowSlot[T] {
	seq := t.opened[src]
	if seq >= wire.MaxFlowsPerSource {
		panic(fmt.Sprintf("sim: node %d started more than %d flows: its flow sequence numbers would wrap", src, wire.MaxFlowsPerSource))
	}
	t.opened[src]++
	slot := t.openRecv(wire.MakeFlowID(uint16(src), uint16(seq)), src, dst, size, at)
	t.order = append(t.order, slot.rec)
	return slot
}

// openRecv creates a receive-side record for a flow whose authoritative
// record lives in another shard's table (the source shard opened it). It is
// indexed for lookups but deliberately kept OUT of order: the merge
// (shard.go) folds its delivery fields into the source-shard record, which
// alone represents the flow in Results.
func (t *flowTable[T]) openRecv(id wire.FlowID, src, dst topology.NodeID, size int64, at simtime.Time) *flowSlot[T] {
	row, seq := t.rows[id.Src()], int(id.Seq())
	if seq >= len(row) {
		row = append(row, make([]flowSlot[T], seq+1-len(row))...) // doubles: one growth per many flows
		t.rows[id.Src()] = row
	}
	row[seq].rec = &FlowRecord{ID: id, Src: src, Dst: dst, SizeBytes: size, Started: at}
	return &row[seq]
}

// ledger builds the ID-keyed map of every record the table holds, for
// inspection after a run (the Ledger methods): nothing per packet reads it.
func (t *flowTable[T]) ledger() map[wire.FlowID]*FlowRecord {
	m := make(map[wire.FlowID]*FlowRecord, len(t.order))
	for _, row := range t.rows {
		for i := range row {
			if rec := row[i].rec; rec != nil {
				m[rec.ID] = rec
			}
		}
	}
	return m
}
