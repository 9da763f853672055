// Package ntp implements the subset of the Network Time Protocol needed
// by the TSC-NTP clock: the 48-byte NTP packet wire format (RFC 1305 /
// RFC 5905 compatible), 64-bit era-aware timestamp conversions, a UDP
// client that performs the four-timestamp exchange of the paper's
// Figure 1, and a minimal stratum-1 server.
//
// The synchronization algorithms never interpret the server timestamps
// beyond reading Tb (receive) and Te (transmit); the other payload fields
// (root delay/dispersion, reference identifier) are carried faithfully so
// the implementation interoperates with standard NTP daemons, and so the
// reference identifier is available to the future route-change detection
// the paper mentions in Section 2.3.
//
// Serving has one loop (loop.go): receive a batch, one wall read, per
// packet limit → kernel-stamp trust clamp → handlePacket → compact, send
// the batch, count. It runs over a two-method packet-I/O seam whose
// implementation Serve picks from the build target and the transport's
// type — recvmmsg/sendmmsg with kernel timestamps on Linux UDP sockets
// (batch_linux.go), a batch of one over ReadFrom/WriteTo anywhere else.
// Every serving count is a metrics cell (counters, in udp.go): the loop
// writes it, Stats and the log line read it, RegisterMetrics renders
// it; nothing keeps a second copy.
package ntp

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"
)

// PacketSize is the size of an NTP packet without extensions.
const PacketSize = 48

// StratumUnsynced is the stratum a server advertises while it has no
// synchronized clock to serve (RFC 5905 calls 16 "unsynchronized");
// clients must not adopt such a server.
const StratumUnsynced = 16

// DispersionRate is the standard NTP clock-drift allowance PHI
// (15 PPM): root dispersion grows by this rate times the seconds since
// the last synchronization update.
const DispersionRate = 15e-6

// LeapIndicator is the 2-bit leap second warning field.
type LeapIndicator uint8

// Leap indicator values.
const (
	LeapNone      LeapIndicator = 0
	LeapAddOne    LeapIndicator = 1
	LeapDelOne    LeapIndicator = 2
	LeapNotSynced LeapIndicator = 3
)

// Mode is the 3-bit association mode field.
type Mode uint8

// Association modes.
const (
	ModeReserved   Mode = 0
	ModeSymActive  Mode = 1
	ModeSymPassive Mode = 2
	ModeClient     Mode = 3
	ModeServer     Mode = 4
	ModeBroadcast  Mode = 5
	ModeControl    Mode = 6
	ModePrivate    Mode = 7
)

// Time64 is the NTP 64-bit timestamp: 32 bits of seconds since the NTP
// epoch (1900-01-01T00:00:00Z) and 32 bits of binary fraction
// (resolution 2^-32 s ~ 233 ps). The zero value means "unset" on the
// wire.
type Time64 uint64

// ntpEpochOffset is the number of seconds between the NTP epoch (1900)
// and the UNIX epoch (1970): 70 years incl. 17 leap days.
const ntpEpochOffset = 2208988800

// fracScale is 2^32 as a float64.
const fracScale = 4294967296.0

// Time64FromSeconds converts a float64 count of seconds since the NTP
// epoch into wire representation. Values outside [0, 2^32) wrap, which is
// the era behaviour mandated by the protocol.
func Time64FromSeconds(sec float64) Time64 {
	if math.IsNaN(sec) || math.IsInf(sec, 0) {
		return 0
	}
	whole, frac := math.Modf(sec)
	if frac < 0 {
		whole--
		frac++
	}
	s := uint64(int64(whole)) & 0xffffffff
	f := uint64(frac*fracScale) & 0xffffffff
	return Time64(s<<32 | f)
}

// Seconds returns the timestamp as float64 seconds since the NTP epoch
// of its own era. Precision is ~2^-21 s at the end of an era, which is
// why the simulation keeps its own origin at zero; this conversion is
// used on the live-UDP path only, where monotonic raw counters carry the
// precision-critical information.
func (t Time64) Seconds() float64 {
	return float64(t>>32) + float64(t&0xffffffff)/fracScale
}

// Time64FromTime converts a wall-clock time.Time to wire representation.
func Time64FromTime(tt time.Time) Time64 {
	sec := uint64(tt.Unix()+ntpEpochOffset) & 0xffffffff
	frac := uint64(float64(tt.Nanosecond()) / 1e9 * fracScale)
	return Time64(sec<<32 | frac&0xffffffff)
}

// Time returns the timestamp as a time.Time, resolving the era ambiguity
// with the pivot: the returned time is the representable instant closest
// to pivot. This implements the standard NTP era-unfolding rule.
func (t Time64) Time(pivot time.Time) time.Time {
	secs := int64(t >> 32)
	frac := int64(t & 0xffffffff)
	ns := (frac*1e9 + 1<<31) >> 32
	base := secs - ntpEpochOffset
	// Unfold to the era nearest the pivot.
	const era = int64(1) << 32
	p := pivot.Unix()
	for base < p-era/2 {
		base += era
	}
	for base > p+era/2 {
		base -= era
	}
	return time.Unix(base, ns).UTC()
}

// Add returns the timestamp advanced by d (which may be negative).
func (t Time64) Add(d time.Duration) Time64 {
	sec := float64(d) / float64(time.Second)
	return Time64(uint64(t) + uint64(int64(sec*fracScale)))
}

// IsZero reports whether the timestamp is the wire "unset" value.
func (t Time64) IsZero() bool { return t == 0 }

// Short32 is the NTP 32-bit short format (16.16 fixed point seconds)
// used for root delay and root dispersion.
type Short32 uint32

// Short32FromSeconds converts seconds to 16.16 fixed point, saturating.
func Short32FromSeconds(sec float64) Short32 {
	if sec <= 0 {
		return 0
	}
	v := sec * 65536
	if v >= math.MaxUint32 {
		return math.MaxUint32
	}
	return Short32(v)
}

// Seconds returns the short value in seconds.
func (s Short32) Seconds() float64 { return float64(s) / 65536 }

// Packet is a decoded NTP header.
type Packet struct {
	Leap      LeapIndicator
	Version   uint8
	Mode      Mode
	Stratum   uint8
	Poll      int8 // log2 seconds
	Precision int8 // log2 seconds
	RootDelay Short32
	RootDisp  Short32
	RefID     uint32

	// The four timestamps. In the paper's notation for a client
	// exchange: Origin = Ta (client send), Receive = Tb (server
	// receive), Transmit = Te (server send); the client's receive stamp
	// Tf never travels on the wire.
	RefTime  Time64
	Origin   Time64
	Receive  Time64
	Transmit Time64
}

// Marshal encodes the packet into the canonical 48-byte wire form.
func (p *Packet) Marshal() [PacketSize]byte {
	var b [PacketSize]byte
	b[0] = byte(p.Leap)<<6 | (p.Version&0x7)<<3 | byte(p.Mode)&0x7
	b[1] = p.Stratum
	b[2] = byte(p.Poll)
	b[3] = byte(p.Precision)
	binary.BigEndian.PutUint32(b[4:], uint32(p.RootDelay))
	binary.BigEndian.PutUint32(b[8:], uint32(p.RootDisp))
	binary.BigEndian.PutUint32(b[12:], p.RefID)
	binary.BigEndian.PutUint64(b[16:], uint64(p.RefTime))
	binary.BigEndian.PutUint64(b[24:], uint64(p.Origin))
	binary.BigEndian.PutUint64(b[32:], uint64(p.Receive))
	binary.BigEndian.PutUint64(b[40:], uint64(p.Transmit))
	return b
}

// Unmarshal decodes a wire packet. Extension fields and MACs after the
// first 48 bytes are ignored, as the algorithms do not use them.
func (p *Packet) Unmarshal(b []byte) error {
	if len(b) < PacketSize {
		//repro:alloc-ok rejected-input error path: allocates only for packets the server refuses to answer
		return fmt.Errorf("ntp: short packet: %d bytes", len(b))
	}
	p.Leap = LeapIndicator(b[0] >> 6)
	p.Version = (b[0] >> 3) & 0x7
	p.Mode = Mode(b[0] & 0x7)
	p.Stratum = b[1]
	p.Poll = int8(b[2])
	p.Precision = int8(b[3])
	p.RootDelay = Short32(binary.BigEndian.Uint32(b[4:]))
	p.RootDisp = Short32(binary.BigEndian.Uint32(b[8:]))
	p.RefID = binary.BigEndian.Uint32(b[12:])
	p.RefTime = Time64(binary.BigEndian.Uint64(b[16:]))
	p.Origin = Time64(binary.BigEndian.Uint64(b[24:]))
	p.Receive = Time64(binary.BigEndian.Uint64(b[32:]))
	p.Transmit = Time64(binary.BigEndian.Uint64(b[40:]))
	if p.Version < 1 || p.Version > 4 {
		//repro:alloc-ok rejected-input error path: allocates only for packets the server refuses to answer
		return fmt.Errorf("ntp: unsupported version %d", p.Version)
	}
	return nil
}

// RefIDString renders the reference identifier: for stratum 0/1 it is a
// four-character ASCII code (e.g. "GPS"), otherwise an IPv4 address.
func (p *Packet) RefIDString() string {
	b := [4]byte{byte(p.RefID >> 24), byte(p.RefID >> 16), byte(p.RefID >> 8), byte(p.RefID)}
	if p.Stratum <= 1 {
		out := make([]byte, 0, 4)
		for _, c := range b {
			if c == 0 {
				break
			}
			if c < 0x20 || c > 0x7e {
				c = '?'
			}
			out = append(out, c)
		}
		return string(out)
	}
	return fmt.Sprintf("%d.%d.%d.%d", b[0], b[1], b[2], b[3])
}

// RefIDFromString packs a short ASCII code (e.g. "GPS", "PPS", "ATOM")
// into a reference identifier.
func RefIDFromString(s string) uint32 {
	var b [4]byte
	copy(b[:], s)
	return binary.BigEndian.Uint32(b[:])
}
