package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark shares its host with other machines' work, and the host's
// speed drifts in phases lasting minutes, which no median inside a
// 30-second run can remove: on a shared 2-vCPU KVM Xeon, the same
// apsp-maspar-warm pass took 0.46 s in one run and 0.64 s in a run five
// minutes later. Each run therefore also times a fixed probe kernel before
// every set-up and pass, and scales its times towards the host speed at
// which the probe takes probeNominal: wall times by the probe's wall time,
// CPU time by the CPU time the probe used (a neighbour that takes CPU time
// from the benchmark slows its wall time but not its CPU time), each ratio
// raised to the workload's probe elasticity.
//
// The probe is part of the benchmark, not of the program, so a change to
// the program cannot move it. It runs what the workloads spend their time
// on: a discrete-event loop over a binary heap with small allocations (the
// engines' event queues and the suite's simulations) and a 1024-goroutine
// rendezvous (bsplib's superstep barrier). The event loop is as wide as
// the workload: its chunks are taken from a shared counter by one
// goroutine per P of the workload's GOMAXPROCS, as suite-cold's sweep
// workers take sweep points, so that when one CPU slows the other takes
// more chunks. A one-copy probe cannot see a neighbour that holds the
// other CPU: with a busy loop on one of two CPUs, suite-cold slowed by 21
// to 25% while a one-copy probe stayed within 6%. The rendezvous runs on
// one P, as the direct workloads run it: across two Ps its cross-CPU
// wake-ups make it noisy.
//
// The direct workloads run on one P, where the probe is nearly what they
// run, and their times move with it (elasticity 1). Over six runs per
// direct workload during a drift of the host's speed, scaling cut the
// spread of wall_s (interquartile range over median) from 0.176 to 0.035
// on apsp-maspar-warm and from 0.253 to 0.057 on engine-nomemo.
// suite-cold's times move about half as much as the probe's, whether the
// probe is one copy, two copies or the shared pool: fitted over two sets
// of ten runs, the exponent came out between 0.42 and 0.57 for wall time
// and between 0.29 and 0.41 for CPU time, and at 0.5 it cut the spread of
// wall_s from 0.086 to 0.073 and from 0.087 to 0.059, where full scaling
// raised it to 0.158 and 0.104. So suite-cold's elasticity is 0.5.

// probeNominal is the probe time, wall and CPU alike, that reported times
// are scaled to: about the probe's median wall time on a quiet 2-vCPU KVM
// Xeon host.
const probeNominal = 50 * time.Millisecond

// probeChunks is the number of event-loop chunks a probe runs per P.
const probeChunks = 6

// probe runs the probe kernel once and returns its wall time and the CPU
// time the process spent on it. The event loop runs as probeChunks chunks
// per P of the workload's GOMAXPROCS, which one goroutine per P take from a
// shared counter, as parsweep's workers take sweep points; the rendezvous
// then runs on one P.
func probe() (wall, cpu time.Duration) {
	n := runtime.GOMAXPROCS(0)
	t0 := now()
	var next atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int32(probeChunks*n) {
				probeEvents()
			}
		}()
	}
	wg.Wait()
	runtime.GOMAXPROCS(1)
	probeBarrier()
	runtime.GOMAXPROCS(n)
	return t0.elapsed()
}

func probeBarrier() {
	const n, steps = 1024, 60
	var (
		mu           sync.Mutex
		gen, arrived int
		wg           sync.WaitGroup
	)
	cond := sync.NewCond(&mu)
	wg.Add(n)
	for p := 0; p < n; p++ {
		go func() {
			defer wg.Done()
			for s := 0; s < steps; s++ {
				mu.Lock()
				g := gen
				if arrived++; arrived == n {
					arrived = 0
					gen++
					cond.Broadcast()
				} else {
					for gen == g {
						cond.Wait()
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

type probeEvent struct {
	at float64
	id int
}

// probeEvents runs a discrete-event loop: a binary heap of 4096 pending
// events, each popped event scheduling one successor, with a small
// allocation every 16 events, 1024 of them live at a time.
func probeEvents() {
	const n, steps = 4096, 25_000
	h := make([]probeEvent, 0, n)
	ring := make([][]byte, 1024)
	x := uint64(88172645463325252)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	push := func(e probeEvent) {
		h = append(h, e)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if h[p].at <= h[i].at {
				break
			}
			h[p], h[i] = h[i], h[p]
			i = p
		}
	}
	pop := func() probeEvent {
		e := h[0]
		last := len(h) - 1
		h[0] = h[last]
		h = h[:last]
		for i := 0; ; {
			l, r, m := 2*i+1, 2*i+2, i
			if l < last && h[l].at < h[m].at {
				m = l
			}
			if r < last && h[r].at < h[m].at {
				m = r
			}
			if m == i {
				break
			}
			h[i], h[m] = h[m], h[i]
			i = m
		}
		return e
	}
	for i := 0; i < n; i++ {
		push(probeEvent{float64(next() % 1000), i})
	}
	for s := 0; s < steps; s++ {
		e := pop()
		push(probeEvent{e.at + float64(next()%1000), e.id})
		if s%16 == 0 {
			ring[s/16%len(ring)] = make([]byte, 64+e.id%256)
		}
	}
}
