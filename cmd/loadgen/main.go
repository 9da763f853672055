// Command loadgen is a closed-loop NTP load generator: the measuring
// half of the batched serving work. It drives a server with N
// concurrent flows, each keeping a bounded window of client-mode
// requests in flight over its own UDP socket (so a kernel with
// SO_REUSEPORT spreads flows across serving shards), matches every
// reply to its request through the echoed Transmit/Origin cookie, and
// reports the achieved closed-loop rate plus request latency
// quantiles computed with internal/stats — so "requests/s" claims
// about the serving path are measured numbers, not extrapolations.
//
// Two load modes:
//
//   - saturation (default, -rate 0): every flow keeps its full window
//     outstanding at all times; the achieved rate is the server's
//     closed-loop capacity at that concurrency.
//   - target rate (-rate R): sends are paced to R requests/s across
//     all flows (each flow paces at R/N), still bounded by the
//     window; the latency quantiles then characterize the server at
//     that operating point rather than at saturation.
//
// -selftest serves the load from an in-process stratum-1 server on a
// loopback socket and asserts that replies flow, which gives CI a
// hermetic smoke test of the whole batched serving + load path:
//
//	loadgen -selftest -duration 2s -flows 4
//	loadgen -target 127.0.0.1:1123 -flows 8 -window 16 -duration 10s
//	loadgen -target 127.0.0.1:1123 -rate 50000 -duration 30s
//
// Each flow counts sends, replies, timeouts and mismatched replies;
// the exit status is non-zero if no replies arrived at all (the smoke
// criterion) or any flow failed outright.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/ntp"
	"repro/internal/stats"
)

func main() {
	var (
		target   = flag.String("target", "", "server UDP address to load (required unless -selftest)")
		selftest = flag.Bool("selftest", false, "serve from an in-process stratum-1 server on loopback and load that")
		flows    = flag.Int("flows", 8, "concurrent closed-loop flows, one socket each")
		window   = flag.Int("window", 16, "requests in flight per flow")
		rate     = flag.Float64("rate", 0, "total target request rate across all flows in req/s (0 = saturation)")
		duration = flag.Duration("duration", 5*time.Second, "measurement length")
		timeout  = flag.Duration("timeout", time.Second, "per-read reply timeout (a timed-out slot is resent)")
		txstamp  = flag.Bool("txstamp", false, "selftest server arms kernel TX error-queue stamps and forward-dates Transmit")
	)
	flag.Parse()
	if *flows < 1 || *window < 1 || *window > 255 {
		log.Fatal("loadgen: need -flows >= 1 and 1 <= -window <= 255")
	}

	addr := *target
	var srv *ntp.Server
	if *selftest {
		if addr != "" {
			log.Fatal("loadgen: -selftest and -target are mutually exclusive")
		}
		var stop func()
		var err error
		srv, addr, stop, err = startSelftestServer(*txstamp)
		if err != nil {
			log.Fatal(err)
		}
		defer stop()
		fmt.Printf("selftest server on %s\n", addr)
	}
	if addr == "" {
		log.Fatal("loadgen: -target is required (or use -selftest)")
	}

	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()

	results := make([]flowResult, *flows)
	var wg sync.WaitGroup
	start := time.Now()
	for f := 0; f < *flows; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			results[f] = runFlow(ctx, addr, *window, *rate/float64(*flows), *timeout)
		}(f)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var sent, recv, timeouts, mismatched, kstamped uint64
	var lat, klat, kdelta []float64
	failed := false
	for f, r := range results {
		if r.err != nil {
			log.Printf("flow %d: %v", f, r.err)
			failed = true
			continue
		}
		sent += r.sent
		recv += r.recv
		timeouts += r.timeouts
		mismatched += r.mismatched
		kstamped += r.kstamped
		lat = append(lat, r.latencies...)
		klat = append(klat, r.klat...)
		kdelta = append(kdelta, r.kdelta...)
	}

	mode := fmt.Sprintf("saturation, %d flows x window %d", *flows, *window)
	if *rate > 0 {
		mode = fmt.Sprintf("target %.0f req/s, %d flows x window %d", *rate, *flows, *window)
	}
	fmt.Printf("loadgen: %s against %s for %v\n", mode, addr, elapsed.Round(time.Millisecond))
	fmt.Printf("  sent %d, replies %d (%.1f%%), timeouts %d, mismatched %d\n",
		sent, recv, 100*float64(recv)/max1(float64(sent)), timeouts, mismatched)
	fmt.Printf("  closed-loop rate: %.0f replies/s\n", float64(recv)/elapsed.Seconds())
	if len(lat) > 0 {
		q := stats.NewSorted(lat).Quantiles(0, 50, 90, 99, 99.9, 100)
		fmt.Printf("  latency: min %s  p50 %s  p90 %s  p99 %s  p99.9 %s  max %s  (%d samples)\n",
			us(q[0]), us(q[1]), us(q[2]), us(q[3]), us(q[4]), us(q[5]), len(lat))
	}
	if len(klat) > 0 {
		// The kernel-RX-stamp latency excludes the reply's dwell in the
		// client's socket buffer and the wakeup; the delta line IS that
		// excluded dwell — the stamping noise a userspace-stamped client
		// folds into every measured RTT.
		q := stats.NewSorted(klat).Quantiles(50, 90, 99)
		d := stats.NewSorted(kdelta).Quantiles(50, 90, 99)
		fmt.Printf("  kernel-rx latency: p50 %s  p90 %s  p99 %s  (%d/%d replies stamped)\n",
			us(q[0]), us(q[1]), us(q[2]), kstamped, recv)
		fmt.Printf("  kernel-vs-userspace rx delta: p50 %s  p90 %s  p99 %s\n",
			us(d[0]), us(d[1]), us(d[2]))
	}
	if srv != nil {
		st := srv.Stats()
		fmt.Printf("  server: %d replies, %.3g syscalls/reply, kernel rx stamps %d/%d\n",
			st.Replied, float64(st.RecvCalls+st.SendCalls)/max1(float64(st.Replied)),
			st.KernelRx, st.KernelRx+st.KernelRxMissing)
		if st.KernelTx+st.KernelTxMissing > 0 {
			fmt.Printf("  server: kernel tx stamps %d/%d, tx dwell ewma %v, clamped %d\n",
				st.KernelTx, st.KernelTx+st.KernelTxMissing, st.TxDwellEWMA, st.StampClamped)
		}
	}
	if recv == 0 {
		log.Fatal("loadgen: no replies received")
	}
	if failed {
		os.Exit(1)
	}
}

func max1(v float64) float64 {
	if v < 1 {
		return 1
	}
	return v
}

// us renders a latency in seconds as microseconds.
func us(sec float64) string { return fmt.Sprintf("%.1fµs", sec*1e6) }

// startSelftestServer boots a single-shard stratum-1 server on an
// ephemeral loopback socket, returning the server (for its counters),
// its address, and a stop function that drains the serve goroutine.
func startSelftestServer(txstamp bool) (*ntp.Server, string, func(), error) {
	srv, err := ntp.NewServer(ntp.ServerConfig{Clock: ntp.SystemServerClock(), TxStamp: txstamp})
	if err != nil {
		return nil, "", nil, err
	}
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		return nil, "", nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(pc)
	}()
	stop := func() {
		pc.Close()
		<-done
	}
	return srv, pc.LocalAddr().String(), stop, nil
}

// flowResult is one flow's tally.
type flowResult struct {
	sent       uint64
	recv       uint64
	timeouts   uint64
	mismatched uint64
	kstamped   uint64
	latencies  []float64 // seconds, send→userspace read
	klat       []float64 // seconds, send→kernel RX stamp
	kdelta     []float64 // seconds, kernel RX stamp→userspace read
	err        error
}

// latencyCap bounds the per-flow latency sample memory (~8 MB per flow
// at 1M float64s); past it, samples beyond the cap are dropped — the
// quantiles of the first million exchanges are plenty.
const latencyCap = 1 << 20

// seqCookie builds the request's Transmit cookie for in-flight slot
// matching: a fixed tag, the slot, and a per-slot generation so a
// stale reply (from a resent slot's earlier incarnation) is not
// mistaken for the current one. The server echoes Transmit verbatim
// into Origin.
func seqCookie(slot, gen uint32) ntp.Time64 {
	return ntp.Time64(uint64(0x4c47)<<48 | uint64(gen&0xffffff)<<8 | uint64(slot&0xff))
}

// runFlow drives one socket's load loop. A slot stack tracks the free
// window positions; a send fires whenever a slot is free and the
// pacing clock allows (always, in saturation mode), and reads run
// between sends with a deadline capped at the next send instant — so
// pacing never delays reads, which would smear client-side socket
// buffer dwell into the measured latency. The pacing clock keeps no
// backlog: a stall does not produce a catch-up burst, which would turn
// the latency tail into an artifact of the generator.
func runFlow(ctx context.Context, addr string, window int, perFlowRate float64, timeout time.Duration) flowResult {
	var r flowResult
	conn, err := net.Dial("udp", addr)
	if err != nil {
		r.err = err
		return r
	}
	defer conn.Close()
	// Kernel RX stamps on the measuring socket, where the platform has
	// them: latency to the kernel stamp excludes client-side buffer
	// dwell, and stamp→read gives the kernel-vs-userspace delta.
	uc, _ := conn.(*net.UDPConn)
	kstamps := uc != nil && ntp.EnableRxTimestamping(uc)
	var oob [128]byte

	var interval time.Duration
	if perFlowRate > 0 {
		interval = time.Duration(float64(time.Second) / perFlowRate)
	}

	sendAt := make([]time.Time, window) // send stamp per slot
	gen := make([]uint32, window)       // current generation per slot
	free := make([]int, window)         // stack of free slots
	for i := range free {
		free[i] = i
	}
	next := time.Now()      // earliest paced send instant
	lastReply := time.Now() // guards the all-outstanding-lost declaration

	send := func() error {
		slot := free[len(free)-1]
		free = free[:len(free)-1]
		gen[slot]++
		req := ntp.Packet{Version: 4, Mode: ntp.ModeClient, Poll: 6,
			Transmit: seqCookie(uint32(slot), gen[slot])}
		wire := req.Marshal()
		sendAt[slot] = time.Now()
		if _, err := conn.Write(wire[:]); err != nil {
			return err
		}
		r.sent++
		if interval > 0 {
			next = sendAt[slot].Add(interval)
		}
		return nil
	}

	var rbuf [512]byte
	var resp ntp.Packet
	for {
		running := ctx.Err() == nil
		if !running && len(free) == window {
			break // nothing outstanding, run over
		}
		// Send while allowed: a free slot and (paced mode) a due clock.
		for running && len(free) > 0 && !time.Now().Before(next) {
			if err := send(); err != nil {
				r.err = err
				return r
			}
		}
		if len(free) == window {
			// Paced mode, nothing in flight: sleep to the next send.
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			continue
		}
		// Read with a deadline that never overruns the next paced send
		// (so pacing stays accurate) nor the reply timeout.
		deadline := time.Now().Add(timeout)
		if running && interval > 0 && len(free) > 0 && next.Before(deadline) {
			deadline = next
		}
		if ctxd, ok := ctx.Deadline(); ok && ctxd.Add(timeout).Before(deadline) {
			deadline = ctxd.Add(timeout) // drain phase: bounded overrun
		}
		conn.SetReadDeadline(deadline)
		var n, oobn int
		if kstamps {
			n, oobn, _, _, err = uc.ReadMsgUDP(rbuf[:], oob[:])
		} else {
			n, err = conn.Read(rbuf[:])
		}
		now := time.Now()
		if err != nil {
			if nerr, ok := err.(net.Error); ok && nerr.Timeout() {
				if !running {
					r.timeouts += uint64(window - len(free))
					break // drain phase over; whatever is left is lost
				}
				if now.Sub(lastReply) >= timeout && len(free) < window {
					// A full quiet timeout with requests in flight:
					// declare them lost (kernel drop under pressure);
					// the generation bump disowns any late replies and
					// the send loop refills the window.
					r.timeouts += uint64(window - len(free))
					free = free[:0]
					for i := 0; i < window; i++ {
						free = append(free, i)
					}
					lastReply = now
				}
				continue
			}
			r.err = err
			return r
		}
		if resp.Unmarshal(rbuf[:n]) != nil || resp.Mode != ntp.ModeServer {
			r.mismatched++
			continue
		}
		slot := int(uint64(resp.Origin) & 0xff)
		if uint64(resp.Origin)>>48 != 0x4c47 || slot >= window ||
			resp.Origin != seqCookie(uint32(slot), gen[slot]) {
			r.mismatched++ // stale generation or foreign traffic
			continue
		}
		r.recv++
		lastReply = now
		if len(r.latencies) < latencyCap {
			r.latencies = append(r.latencies, now.Sub(sendAt[slot]).Seconds())
		}
		if kstamps && oobn > 0 {
			if krx, ok := ntp.RxTimestampFromOOB(oob[:oobn]); ok {
				r.kstamped++
				if len(r.klat) < latencyCap {
					r.klat = append(r.klat, krx.Sub(sendAt[slot]).Seconds())
					r.kdelta = append(r.kdelta, now.Sub(krx).Seconds())
				}
			}
		}
		free = append(free, slot)
	}
	return r
}
