// Live UDP synchronization: the full pipeline end to end on a real
// socket. The program starts the bundled stratum-1 NTP server on
// loopback (stamping from the OS clock), then runs the TSC-NTP
// synchronizer against it with raw monotonic counter stamps, printing
// the state after each exchange.
//
// Point -server at a real stratum-1 server on your network to calibrate
// against it instead (keep the polling period conservative; public
// servers must not be hammered).
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"time"

	tscclock "repro"
	"repro/internal/ntp"
	"repro/internal/timebase"
)

func main() {
	var (
		server = flag.String("server", "", "NTP server address (default: bundled loopback server)")
		poll   = flag.Duration("poll", time.Second, "polling interval")
		count  = flag.Int("count", 10, "number of exchanges")
	)
	flag.Parse()

	addr := *server
	if addr == "" {
		pc, err := net.ListenPacket("udp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer pc.Close()
		srv, err := ntp.NewServer(ntp.ServerConfig{Clock: ntp.SystemServerClock()})
		if err != nil {
			log.Fatal(err)
		}
		go srv.Serve(pc)
		addr = pc.LocalAddr().String()
		fmt.Println("started bundled stratum-1 server on", addr)
	}

	live, err := tscclock.DialMultiLive(tscclock.MultiLiveOptions{
		Servers: []string{addr},
		Poll:    *poll,
		Timeout: 2 * time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer live.Close()

	fmt.Printf("%-4s %-12s %-14s %-12s %s\n", "i", "RTT", "offset est", "min RTT", "clock vs OS")
	for i := 0; i < *count; i++ {
		st, err := live.Step(0)
		if err != nil {
			fmt.Printf("%-4d exchange failed: %v (clock coasts on calibration)\n", i, err)
		} else {
			diff := live.Now().Sub(time.Now())
			fmt.Printf("%-4d %-12s %-14s %-12s %v\n", i,
				timebase.FormatDuration(st.RTT),
				timebase.FormatDuration(st.Offset),
				timebase.FormatDuration(st.MinRTT), diff)
		}
		time.Sleep(*poll)
	}

	fmt.Printf("\nabsolute time now: %s\n", live.Now().Format(time.RFC3339Nano))
	fmt.Println("exchanges processed:", live.Ensemble().Exchanges())
}
