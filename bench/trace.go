package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the boundary: the layers themselves carry no tracing yet.
// Spans of one request (or one replayed exchange) share Req; Parent is
// the ID of the span that caused this one, 0 for a root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// appendRequestSpans records one sampled serving request: a root req
// span from the due instant to the userspace read of the reply, with
// the generator's send syscall, the server's residence (from the
// reply's own Receive and Transmit stamps, placed so that it ends
// where the kernel stamped the reply's arrival) and the reply's dwell
// in the generator's receive queue as children. What is left of the
// root — its self time — is the two loopback crossings plus any wait
// of the request in the schedule. All times are ns from the step's
// start, shifted by base onto the run's timeline; dwell < 0 means no
// kernel stamp.
func appendRequestSpans(spans []span, req, base, due, sendStart, sendEnd, rx, residence, dwell int64) []span {
	id := int32(len(spans)) + 1
	spans = append(spans,
		span{ID: id, Req: req, Name: "req", Start: base + due, End: base + rx},
		span{ID: id + 1, Parent: id, Req: req, Name: "gen.send", Start: base + sendStart, End: base + sendEnd})
	arrive := rx
	if dwell >= 0 {
		arrive = rx - dwell
	}
	spans = append(spans, span{ID: id + 2, Parent: id, Req: req, Name: "ntp.residence", Start: base + arrive - residence, End: base + arrive})
	if dwell >= 0 {
		spans = append(spans, span{ID: id + 3, Parent: id, Req: req, Name: "gen.rx_dwell", Start: base + arrive, End: base + rx})
	}
	return spans
}

// selfTimes returns, for every span name, the total self time of the
// spans of that name: each span's duration minus the part of its
// interval that its direct children cover (overlapping children are
// counted once, children are clipped to the parent).
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Name] += (s.End - s.Start) - covered
	}
	return self
}

// writeSpans writes the spans of a traced run as one JSON array.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
