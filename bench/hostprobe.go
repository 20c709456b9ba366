package main

import (
	"encoding/binary"
	"sync"
	"syscall"
	"time"
)

// The sandbox's memory system is shared with other tenants: its latency
// drifts by a third over minutes, and within minutes the throughput and the
// CPU cost of this memory-bound stack drift with it (README, Steadiness, has
// the correlation on each of the five workloads). hostProbe measures that
// latency around the measured pass — a dependent-load chase through 64 MB,
// which shares no code with the repository — and the run reports ips and
// cpu_ms_per_op at a reference host speed: multiplied and divided by
// hostSpeed. host.memlat_ns carries the latency itself, so the figures as
// timed can be had back.

const (
	probeEntries = 16 << 20 // 4-byte entries: 64 MB, far beyond the caches
	probeLoads   = 1 << 20  // dependent loads per goroutine per burst, at scale 1
	// refMemLatNs fixes the unit: a time reported "at the reference host
	// speed" is what it would have been had a burst read this latency,
	// which is about what one reads on this box when the host is quiet.
	refMemLatNs = 180.0
)

// hostSpeed turns the bursts around the measured pass into the factor its
// times are divided by (and its rates multiplied by): above 1 on a slow
// host.
func hostSpeed(memlat []float64) float64 {
	var sum float64
	for _, ns := range memlat {
		sum += ns
	}
	return sum / float64(len(memlat)) / refMemLatNs
}

// hostProbe is a cyclic permutation laid out in anonymous memory outside
// the Go heap, so that it neither moves the garbage collector's pacing nor
// gets scanned.
type hostProbe struct {
	mem []byte
}

func newHostProbe() (*hostProbe, error) {
	mem, err := syscall.Mmap(-1, 0, probeEntries*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	// next[i] = a*i + c mod 2^24 is a full-period generator (c odd, a = 1
	// mod 4): following it visits every entry once, in an order no
	// prefetcher predicts.
	for i := uint32(0); i < probeEntries; i++ {
		binary.LittleEndian.PutUint32(mem[i*4:], (i*1664525+1013904223)%probeEntries)
	}
	return &hostProbe{mem: mem}, nil
}

// close unmaps the probe's memory; a second call does nothing.
func (p *hostProbe) close() {
	if p.mem != nil {
		syscall.Munmap(p.mem)
		p.mem = nil
	}
}

// burst returns the nanoseconds per dependent load over loads loads, with
// both cores chasing at once — the stack under load keeps both busy too.
func (p *hostProbe) burst(loads int) float64 {
	var wg sync.WaitGroup
	t0 := time.Now()
	for k := uint32(0); k < connections; k++ {
		wg.Add(1)
		go func(at uint32) {
			defer wg.Done()
			for i := 0; i < loads; i++ {
				at = binary.LittleEndian.Uint32(p.mem[at*4:])
			}
			if at >= probeEntries {
				panic("bench: host probe left its permutation")
			}
		}(k * (probeEntries / connections))
	}
	wg.Wait()
	return float64(time.Since(t0)) / float64(loads)
}
