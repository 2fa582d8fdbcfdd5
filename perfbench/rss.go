package main

import (
	"bytes"
	"os"
	"strconv"
	"sync"
	"time"
)

// rssSampler tracks the peak resident memory of this process between
// cuts by reading /proc/self/statm every few milliseconds. A run reports
// the median of its per-op peaks (per campaign in d1-campaign), which
// holds steadier than the single peak of the whole process: one late GC
// or one cancelled speculative drive moves a lone maximum by a fifth.
type rssSampler struct {
	mu   sync.Mutex
	peak int64 // bytes since the last cut
	page int64

	stop chan struct{}
	wg   sync.WaitGroup
}

const rssEvery = 5 * time.Millisecond

func startRSS() *rssSampler {
	s := &rssSampler{page: int64(os.Getpagesize()), stop: make(chan struct{})}
	s.observe()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.observe()
			}
		}
	}()
	return s
}

// observe folds the current resident size into the peak.
func (s *rssSampler) observe() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := bytes.Fields(b)
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(string(f[1]), 10, 64)
	if err != nil {
		return 0
	}
	cur := pages * s.page
	s.mu.Lock()
	defer s.mu.Unlock()
	s.peak = max(s.peak, cur)
	return cur
}

// cut returns the peak in MB since the previous cut and starts a new
// interval at the current size. A nil sampler returns 0.
func (s *rssSampler) cut() float64 {
	if s == nil {
		return 0
	}
	cur := s.observe()
	s.mu.Lock()
	defer s.mu.Unlock()
	peak := s.peak
	s.peak = cur
	return float64(peak) / 1e6
}

// close stops the sampler and waits for it.
func (s *rssSampler) close() {
	close(s.stop)
	s.wg.Wait()
}
