package main

import "time"

// The host a benchmark run lands on changes speed by tens of percent, over
// a tenth of a second as well as over minutes (other tenants, clock
// frequency): on the 2-vCPU host this benchmark was tuned on, one
// repetition of the same simulation took anywhere from 0.55 s to 1.2 s. So
// every repetition also times a fixed reference kernel just before and
// just after each timed phase, and the end-to-end times are reported
// scaled to a host that runs the kernel in refNominal:
// scaled = raw x refNominal / ref, ref being the mean of the two kernel
// times around the phase. The kernel calls no repo code, so only a change
// to the simulator moves the scaled times; the raw times are printed
// beside them.
//
// The kernel is a goroutine ping-pong, the simulator's largest single cost
// (proc park and resume). Of the kernels tried on that host (this one, an
// in-cache integer loop, a random walk over 64 MiB and small map updates
// with allocation), it tracked the simulations' own swings best: scaling
// tpcc-rw's System.Run by it cut the spread of 20-repetition medians from
// 18% to 3%, and array-skew's from 34% to 8%.

// refNominal is the reference kernel's typical time on that 2-vCPU Xeon
// host.
const refNominal = 25 * time.Millisecond

var refSink uint64

// hostRef times the reference kernel: 50 000 round trips between two
// goroutines over unbuffered channels, on the benchmark's single P.
func hostRef() time.Duration {
	t0 := time.Now()
	ping, pong := make(chan uint64), make(chan uint64)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	var s uint64
	for i := uint64(0); i < 50000; i++ {
		ping <- i
		s += <-pong
	}
	close(ping)
	<-pong
	refSink = s
	return time.Since(t0)
}
