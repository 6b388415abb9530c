package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// spans records timed intervals around the benchmark's calls into the
// program. Spans stay in memory and are written once, at the end of the
// run. A nil *spans records nothing, so untraced runs pay a nil check.
type spans struct {
	run   string
	epoch time.Time

	mu   sync.Mutex
	list []span
}

// span is one recorded interval. Parent is the id of the enclosing span
// (0 = none); ids are 1-based positions in the list.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Run    string `json:"run"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	SelfNS int64  `json:"self_ns"`
}

func newSpans(run string) *spans {
	return &spans{run: run, epoch: time.Now()}
}

// begin opens a span under parent and returns its id.
func (s *spans) begin(name string, parent int) int {
	if s == nil {
		return 0
	}
	now := time.Since(s.epoch).Nanoseconds()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.list = append(s.list, span{ID: len(s.list) + 1, Parent: parent, Run: s.run, Name: name, Start: now, End: -1})
	return len(s.list)
}

// end closes span id.
func (s *spans) end(id int) {
	if s == nil || id == 0 {
		return
	}
	now := time.Since(s.epoch).Nanoseconds()
	s.mu.Lock()
	s.list[id-1].End = now
	s.mu.Unlock()
}

// do runs fn inside a span and returns the span's duration in seconds.
func (s *spans) do(name string, parent int, fn func()) float64 {
	id := s.begin(name, parent)
	t0 := time.Now()
	fn()
	d := time.Since(t0).Seconds()
	s.end(id)
	return d
}

// withSelf fills every span's self time: its duration minus the part of
// its interval its direct children cover (children of one parent may
// overlap when they ran concurrently, so their union is subtracted).
func withSelf(list []span) []span {
	out := append([]span(nil), list...)
	children := make(map[int][]span)
	for _, sp := range out {
		if sp.Parent != 0 {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	for i, sp := range out {
		covered := int64(0)
		curStart, curEnd := int64(-1), int64(-1)
		kids := children[sp.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		for _, c := range kids {
			s, e := max(c.Start, sp.Start), min(c.End, sp.End)
			if e <= s {
				continue
			}
			if s > curEnd {
				covered += curEnd - curStart
				curStart, curEnd = s, e
			} else if e > curEnd {
				curEnd = e
			}
		}
		covered += curEnd - curStart
		out[i].SelfNS = sp.End - sp.Start - covered
	}
	return out
}

// write stores every span, with self times, as a JSON array at path.
func (s *spans) write(path string) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	list := withSelf(s.list)
	s.mu.Unlock()
	for _, sp := range list {
		if sp.End < 0 {
			return fmt.Errorf("span %q was never closed", sp.Name)
		}
	}
	b, err := json.MarshalIndent(list, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
