package engine

// Map-side spill: Hadoop buffers map output in a bounded in-memory buffer
// (io.sort.mb) and, when it fills, groups, combines and spills a segment;
// the segments are merged at the end of the task. The engine reproduces
// that path when Config.SortBufferRecords is set, so memory stays bounded
// for arbitrarily large map outputs — and so the spill/merge machinery the
// paper's heap-size tuning (§II-D) is about actually exists in the
// functional substrate. An unbounded buffer is the same machinery with a
// single spill at task end. Hadoop sorts each spill; here only the reduce
// task sorts (runReduceTask).

// segment is one grouped (and possibly combined) run of pairs: each key's
// pairs are adjacent, keys in first-seen order.
type segment []kv

// spillBuffer groups one map task's output under a record bound, in the
// map worker's grouper.
type spillBuffer struct {
	bound    int // records per spill; 0 spills only at drain
	combiner Reducer
	g        *grouper
	segments []segment
	spills   int
}

// add groups one emitted pair, spilling when the buffer is full.
func (s *spillBuffer) add(k, v []byte) error {
	if err := add(s.g, k, v); err != nil {
		return err
	}
	if s.bound > 0 && s.g.len() >= s.bound {
		return s.spill()
	}
	return nil
}

// spill turns the buffered groups into a new segment.
func (s *spillBuffer) spill() error {
	if s.g.len() == 0 {
		return nil
	}
	seg, err := s.g.flush(s.combiner)
	if err != nil {
		return err
	}
	s.segments = append(s.segments, seg)
	s.spills++
	return nil
}

// drain finishes the task: a final spill, then a merge of all segments
// with a last combine across segment boundaries.
func (s *spillBuffer) drain() ([]kv, error) {
	if err := s.spill(); err != nil {
		return nil, err
	}
	switch len(s.segments) {
	case 0:
		return nil, nil
	case 1:
		return s.segments[0], nil
	}
	return mergeSegments(s.segments, s.combiner, s.g)
}

// mergeSegments merges segments into one grouped run through the empty
// grouper g, combining equal keys from different segments when a combiner
// is set.
func mergeSegments(segs []segment, combiner Reducer, g *grouper) (segment, error) {
	for _, seg := range segs {
		for _, p := range seg {
			if err := add(g, p.k, p.v); err != nil {
				return nil, err
			}
		}
	}
	return g.flush(combiner)
}

// flush empties the grouper into one grouped run: its groups in first-seen
// key order, each run through the combiner with its values in add order,
// or expanded pair by pair when there is none.
func (g *grouper) flush(combiner Reducer) (segment, error) {
	groups := g.groups()
	var out segment
	if combiner == nil {
		out = make(segment, 0, g.len())
		for _, gr := range groups {
			for _, v := range gr.values {
				out = append(out, kv{gr.key, v})
			}
		}
	} else {
		out = make(segment, 0, len(groups))
		emit := func(k, v string) { out = append(out, kv{k, v}) }
		for _, gr := range groups {
			if err := combiner.Reduce(gr.key, gr.values, emit); err != nil {
				return nil, err
			}
		}
	}
	g.reset()
	return out, nil
}
