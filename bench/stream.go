package main

import (
	"fmt"
	"net/url"
	"strings"
	"sync"

	"repro/internal/datagen"
	"repro/internal/workload"
)

// request is one generated interaction.
type request struct {
	Inter int // index into Profile.Interactions
	workload.Request
}

// stream is the workload's request sequence, a pure function of (profile,
// mix, seed): interactions are drawn from the mix distribution and
// parameterised by the profile's own generators. Every consumer takes the
// next unissued request, so a request is sent to one lab at most once — a
// replay would re-register the same nicknames and fail.
type stream struct {
	profile *workload.Profile
	weights []float64
	g       *datagen.Gen
	seen    map[string]bool // unique keys already used

	mu   sync.Mutex
	reqs []request
	pos  int
}

func newStream(p *workload.Profile, mix string, seed int64) (*stream, error) {
	w, ok := p.Mixes[mix]
	if !ok || len(w) != len(p.Interactions) {
		return nil, fmt.Errorf("bench: profile %s has no usable mix %q", p.Name, mix)
	}
	return &stream{profile: p, weights: w, g: datagen.New(seed), seen: make(map[string]bool)}, nil
}

// generate appends n requests.
func (s *stream) generate(n int) {
	for ; n > 0; n-- {
		idx := s.pick()
		in := s.profile.Interactions[idx]
		r := in.Build(s.g)
		if param := uniqueKeyInteractions[in.Name]; param != "" {
			for s.seen[uniqueKey(r, param)] {
				r = in.Build(s.g)
			}
			s.seen[uniqueKey(r, param)] = true
		}
		s.reqs = append(s.reqs, request{Inter: idx, Request: r})
	}
}

// uniqueKey extracts a request's unique-index parameter from its query
// string or form body.
func uniqueKey(r workload.Request, param string) string {
	form := r.Body
	if _, query, ok := strings.Cut(r.Path, "?"); ok {
		form = query
	}
	v, _ := url.ParseQuery(form)
	return v.Get(param)
}

func (s *stream) pick() int {
	x := s.g.Float64()
	var cum float64
	for i, w := range s.weights {
		cum += w
		if x < cum {
			return i
		}
	}
	return len(s.weights) - 1
}

// reserve generates ahead until n unissued requests are waiting. The run
// calls it between the timed ranges, sized at twice what the stack is
// expected to consume, so that no request is generated inside one.
func (s *stream) reserve(n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if short := n - (len(s.reqs) - s.pos); short > 0 {
		s.generate(short)
	}
}

// next hands out the next unissued request. If the stack outruns the
// reserve the stream grows here, in chunks, from the same generator — the
// sequence stays seed-determined, but the generation is then timed.
func (s *stream) next() request {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pos == len(s.reqs) {
		s.generate(4096)
	}
	r := s.reqs[s.pos]
	s.pos++
	return r
}
