package layout

import "errors"

// WalkStop reports why a summary-chain walk ended.
type WalkStop uint8

// Reasons a summary-chain walk ends.
const (
	WalkEnd        WalkStop = iota // passed the last offset that can hold a summary
	WalkBadSummary                 // bad magic, checksum or entry count
	WalkSeqBreak                   // WriteSeq breaks the SeqRule, or reached its limit
	WalkOverflow                   // no entries, or more than the segment has left
	WalkReadError                  // the read failed; its error is returned
	WalkHalted                     // the callback returned an error (nil for StopWalk)
)

// StopWalk is returned by a WalkSegment callback to end the walk early
// without an error; the walk then reports WalkHalted and a nil error.
var StopWalk = errors.New("layout: stop walk")

// SeqRule is the write-sequence rule a summary chain must follow: each
// WriteSeq at least next (exactly next if exact), which then moves past it.
type SeqRule struct {
	exact       bool
	next, limit uint64
}

// SeqIncreasing requires each summary's WriteSeq to exceed the previous
// one's. Within a segment's current life sequence numbers only grow; a
// regression is the stale tail left from before the segment was cleaned
// and reused, whose data may since have been overwritten.
func SeqIncreasing() SeqRule { return SeqRule{} }

// SeqExact requires the summaries to carry WriteSeq next, next+1, ... and
// ends the walk, before reading, once the sequence reaches limit. It is
// the rule of the log written since a checkpoint, which roll-forward
// threads across segments.
func SeqExact(next, limit uint64) SeqRule { return SeqRule{exact: true, next: next, limit: limit} }

// WalkSegment follows one segment's summary chain from block offset
// startOff. read returns the block at a segment-relative offset; each
// summary is decoded into scratch, so fn must not retain it. fn is called
// with each valid summary and its offset; a non-nil return ends the walk
// (StopWalk without an error). The walk returns the offset it stopped at
// — one past the last summary fn accepted, or the offset of the summary
// that ended it — why it stopped, and the read or callback error.
func WalkSegment(segBlocks, startOff int64, read func(off int64) ([]byte, error), scratch *Summary,
	seq SeqRule, fn func(off int64, s *Summary) error) (int64, WalkStop, error) {
	off := startOff
	for off <= segBlocks-2 {
		if seq.exact && seq.next >= seq.limit {
			return off, WalkSeqBreak, nil
		}
		buf, err := read(off)
		if err != nil {
			return off, WalkReadError, err
		}
		if DecodeSummaryInto(buf, scratch) != nil {
			return off, WalkBadSummary, nil
		}
		if scratch.WriteSeq < seq.next || seq.exact && scratch.WriteSeq != seq.next {
			return off, WalkSeqBreak, nil
		}
		n := int64(len(scratch.Entries))
		if n == 0 || off+1+n > segBlocks {
			return off, WalkOverflow, nil
		}
		if err := fn(off, scratch); err != nil {
			if err == StopWalk {
				err = nil
			}
			return off, WalkHalted, err
		}
		seq.next = scratch.WriteSeq + 1
		off += 1 + n
	}
	return off, WalkEnd, nil
}
