package ntp

import (
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"repro/internal/ratelimit"
)

// errScriptDone is how a test packetIO ends the serving loop.
var errScriptDone = errors.New("script exhausted")

// scriptPkt is one scripted datagram: its bytes and everything a real
// packetIO would have learned about it from the kernel.
type scriptPkt struct {
	data     []byte
	key      uint64    // rate-limiter prefix key
	unkeyed  bool      // source of no known family: no key
	rx       time.Time // kernel RX stamp; zero for none
	failSend bool      // the transport refuses the reply to this one
}

// scriptReply is one reply the loop handed to send, and the scripted
// datagram (counted across batches) it answers.
type scriptReply struct {
	pkt   int
	bytes [PacketSize]byte
}

// scriptIO is an in-memory packetIO: recv plays the scripted batches in
// order, send records the replies, and the loop ends with
// errScriptDone. It allocates nothing once replies has grown, so the
// zero-alloc gate can run the real loop over it.
type scriptIO struct {
	script  [][]scriptPkt
	next    int         // next batch to play
	cur     []scriptPkt // the batch last played
	base    int         // datagrams played before cur
	replies []scriptReply
}

func (s *scriptIO) recv(b *batch) (int, error) {
	if s.next == len(s.script) {
		return 0, errScriptDone
	}
	s.base += len(s.cur)
	s.cur = s.script[s.next]
	s.next++
	for i, p := range s.cur {
		b.in[i], b.key[i], b.keyed[i], b.rx[i] = p.data, p.key, !p.unkeyed, p.rx
	}
	return len(s.cur), nil
}

func (s *scriptIO) send(b *batch, n int) (int, error) {
	sent := 0
	for k := 0; k < n; k++ {
		if i := b.src[k]; !s.cur[i].failSend {
			s.replies = append(s.replies, scriptReply{pkt: s.base + i, bytes: b.out[k]})
			sent++
		}
	}
	return sent, nil
}

// rewind puts the script back at the top and forgets the replies.
func (s *scriptIO) rewind() {
	s.next, s.cur, s.base, s.replies = 0, nil, 0, s.replies[:0]
}

// play runs the serving loop over the script from the top.
func (s *scriptIO) play(t testing.TB, srv *Server) {
	t.Helper()
	s.rewind()
	if err := srv.serve(s, newBatch(batchDepth)); err != errScriptDone {
		t.Fatalf("serve = %v, want the script to run out", err)
	}
}

// fullBatch scripts n valid client requests from distinct /24s, each
// carrying a kernel RX stamp of the given instant.
func fullBatch(n int, rx time.Time) []scriptPkt {
	pkts := make([]scriptPkt, n)
	for i := range pkts {
		pkts[i] = scriptPkt{
			data: clientPacket(4),
			key:  ratelimit.PrefixKey4([4]byte{192, 0, byte(i), 1}),
			rx:   rx,
		}
	}
	return pkts
}

// TestBatchProcessZeroAlloc is the steady-state allocation gate for the
// serving loop: a full batch through rate limiting, the kernel-stamp
// clamp, validation, stamping, marshalling, compaction and counting
// must not allocate. This is the runtime check backing the reprolint
// //repro:hotpath static gate on serve (TestMmsgServeZeroAlloc and
// TestTxDrainZeroAlloc cover the kernel-batched I/O under it).
func TestBatchProcessZeroAlloc(t *testing.T) {
	lim := ratelimit.New(ratelimit.Config{Rate: 1e12, Burst: 1e12})
	srv, err := NewServer(ServerConfig{Clock: SystemServerClock(), Limit: lim})
	if err != nil {
		t.Fatal(err)
	}
	io := &scriptIO{script: [][]scriptPkt{fullBatch(16, time.Now())}}
	b := newBatch(batchDepth)
	allocs := testing.AllocsPerRun(200, func() {
		io.rewind()
		if err := srv.serve(io, b); err != errScriptDone {
			t.Fatal(err)
		}
		if len(io.replies) != 16 {
			t.Fatalf("loop replied to %d of 16", len(io.replies))
		}
	})
	if allocs != 0 {
		t.Errorf("serving loop allocates %.1f times per batch, want 0", allocs)
	}
}

// TestBatchProcessReplies checks the loop's output for one scripted
// batch: replies are compacted into the reply slots in order, carry
// server mode, and each is aimed back at its source.
func TestBatchProcessReplies(t *testing.T) {
	srv, err := NewServer(ServerConfig{Clock: SystemServerClock()})
	if err != nil {
		t.Fatal(err)
	}
	pkts := fullBatch(8, time.Now())
	// Slot 3: too short. Slot 5: wrong mode. Both must be dropped and
	// the replies around them compacted.
	pkts[3].data = pkts[3].data[:12]
	pkts[5].data[0] = pkts[5].data[0]&^0x7 | byte(ModeServer)
	io := &scriptIO{script: [][]scriptPkt{pkts}}
	io.play(t, srv)

	wantSrc := []int{0, 1, 2, 4, 6, 7}
	if len(io.replies) != len(wantSrc) {
		t.Fatalf("loop kept %d replies, want %d", len(io.replies), len(wantSrc))
	}
	for k, r := range io.replies {
		var resp Packet
		if err := resp.Unmarshal(r.bytes[:]); err != nil {
			t.Fatalf("reply %d: %v", k, err)
		}
		if resp.Mode != ModeServer {
			t.Errorf("reply %d: mode = %v", k, resp.Mode)
		}
		if r.pkt != wantSrc[k] {
			t.Errorf("reply %d aimed at datagram %d, want %d", k, r.pkt, wantSrc[k])
		}
	}
	st := srv.Stats()
	if st.Short != 1 || st.NonClient != 1 {
		t.Errorf("drop counters = %+v, want Short=1 NonClient=1", st)
	}
	if st.KernelRx != 8 {
		t.Errorf("KernelRx = %d, want 8 (stamps are counted per received datagram, before validation drops)", st.KernelRx)
	}
}

// TestServeUnkeyedFailsOpen: a datagram whose source the packet I/O
// could not key is served without asking the limiter — an untypable
// source is not evidence of abuse — while keyed ones from a prefix that
// has run dry are dropped and counted.
func TestServeUnkeyedFailsOpen(t *testing.T) {
	lim := ratelimit.New(ratelimit.Config{Rate: 1e-9, Burst: 1})
	srv, err := NewServer(ServerConfig{Clock: SystemServerClock(), Limit: lim})
	if err != nil {
		t.Fatal(err)
	}
	pkts := fullBatch(4, time.Time{})
	for i := range pkts {
		pkts[i].key = pkts[0].key
	}
	pkts[2].unkeyed = true
	io := &scriptIO{script: [][]scriptPkt{pkts}}
	io.play(t, srv)
	if st := srv.Stats(); st.Replied != 2 || st.RateLimited != 2 || lim.Denied() != 2 {
		t.Errorf("Replied=%d RateLimited=%d limiter denied %d, want 2, 2, 2", st.Replied, st.RateLimited, lim.Denied())
	}
	if len(io.replies) != 2 || io.replies[0].pkt != 0 || io.replies[1].pkt != 2 {
		t.Errorf("replies went to %+v, want datagrams 0 (in budget) and 2 (unkeyed)", io.replies)
	}
}

// TestServeHostClockStep puts the trust clamp under a stepping host
// clock, deterministically: with the loop's wall source pinned, kernel
// stamps 2 s ahead of it and 2 s behind it are distrusted (missing and
// clamped), one 0.5 ms ahead is jitter (kept, clamped, Receive not
// backdated), and one 300 µs behind is simply used.
func TestServeHostClockStep(t *testing.T) {
	sample := ClockSample{Time: Time64FromSeconds(3.9e9), Stratum: 1}
	srv, err := NewServer(ServerConfig{Sample: func() ClockSample { return sample }})
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Unix(1_750_000_000, 0)
	srv.now = func() time.Time { return wall }

	pkts := fullBatch(4, time.Time{})
	ages := []time.Duration{-2 * time.Second, 2 * time.Second, -500 * time.Microsecond, 300 * time.Microsecond}
	for i, age := range ages {
		pkts[i].rx = wall.Add(-age)
	}
	io := &scriptIO{script: [][]scriptPkt{pkts}}
	io.play(t, srv)

	st := srv.Stats()
	if st.KernelRx != 2 || st.KernelRxMissing != 2 || st.StampClamped != 3 {
		t.Errorf("KernelRx=%d KernelRxMissing=%d StampClamped=%d, want 2, 2, 3", st.KernelRx, st.KernelRxMissing, st.StampClamped)
	}
	if len(io.replies) != len(ages) {
		t.Fatalf("%d replies, want %d", len(io.replies), len(ages))
	}
	for k, r := range io.replies {
		var resp Packet
		if err := resp.Unmarshal(r.bytes[:]); err != nil {
			t.Fatal(err)
		}
		want := sample.Time
		if k == 3 {
			want = sample.Time.Add(-ages[3])
		}
		if resp.Receive != want {
			t.Errorf("stamp aged %v: Receive = %v, want %v (sample time %v)", ages[k], resp.Receive, want, sample.Time)
		}
		if resp.Transmit != sample.Time {
			t.Errorf("stamp aged %v: Transmit = %v, want the sample time %v", ages[k], resp.Transmit, sample.Time)
		}
	}
}

// FuzzServe pushes arbitrary datagram batches through the whole serving
// loop, with and without a limiter. Whatever arrives, every request is
// accounted for exactly once — Requests = Replied + Short + Malformed +
// NonClient + RateLimited + WriteErrors — and every reply echoes its
// own request's Transmit in Origin.
//
// The input is a run of datagrams, each a header byte (low 7 bits: the
// length; high bit: the transport refuses the reply) followed by that
// many bytes; every batchDepth of them form one batch.
func FuzzServe(f *testing.F) {
	good := clientPacket(4)
	f.Add(append([]byte{PacketSize}, good...), false)
	f.Add(append([]byte{PacketSize | 0x80}, good...), true)
	f.Add(append(append([]byte{20}, good[:20]...), append([]byte{PacketSize}, clientPacket(0)...)...), false)
	var flood []byte
	for i := 0; i < 2*batchDepth+3; i++ {
		flood = append(append(flood, PacketSize), clientPacket(uint8(i))...)
	}
	f.Add(flood, true)

	f.Fuzz(func(t *testing.T, data []byte, limited bool) {
		cfg := ServerConfig{Clock: SystemServerClock()}
		if limited {
			// Three tokens per prefix and no refill to speak of: with the
			// keys below, a long script runs every prefix dry.
			cfg.Limit = ratelimit.New(ratelimit.Config{Rate: 1e-9, Burst: 3})
		}
		srv, err := NewServer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var all []scriptPkt
		for len(data) > 0 {
			n := int(data[0] & 0x7f)
			if n > len(data)-1 {
				n = len(data) - 1
			}
			p := scriptPkt{data: append([]byte(nil), data[1:1+n]...), failSend: data[0]&0x80 != 0}
			if n > 0 {
				p.key = uint64(p.data[n-1] & 3)
			}
			data = data[1+n:]
			all = append(all, p)
		}
		io := &scriptIO{}
		for rest := all; len(rest) > 0; {
			n := min(len(rest), batchDepth)
			io.script = append(io.script, rest[:n])
			rest = rest[n:]
		}
		io.play(t, srv)

		st := srv.Stats()
		if st.Requests != uint64(len(all)) {
			t.Errorf("Requests = %d, script has %d datagrams", st.Requests, len(all))
		}
		if sum := st.Replied + st.Short + st.Malformed + st.NonClient + st.RateLimited + st.WriteErrors; sum != st.Requests {
			t.Errorf("conservation: %d requests, %d accounted for: %+v", st.Requests, sum, st)
		}
		if st.Replied != uint64(len(io.replies)) {
			t.Errorf("Replied = %d, transport saw %d replies", st.Replied, len(io.replies))
		}
		if !limited && st.RateLimited != 0 {
			t.Errorf("RateLimited = %d without a limiter", st.RateLimited)
		}
		for _, r := range io.replies {
			req := all[r.pkt].data
			if len(req) < PacketSize {
				t.Fatalf("reply to a %d-byte datagram", len(req))
			}
			if got, want := binary.BigEndian.Uint64(r.bytes[24:32]), binary.BigEndian.Uint64(req[40:48]); got != want {
				t.Errorf("reply Origin = %#x, request Transmit = %#x", got, want)
			}
		}
	})
}
