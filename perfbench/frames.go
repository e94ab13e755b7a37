package main

import (
	"encoding/binary"
	"math/rand"
	"strings"

	"sdnfv/internal/packet"
)

// Every generated frame carries a stamp at the start of its L4 payload:
//
//	[0:8]   seq   (little endian) — global, per run, never reused
//	[8:12]  flow  index of the flow the stream assigned to seq
//	[12:16] pkt   index of the packet within its flow (0 = first)
//	[16:20] check hash over seq, flow, pkt and every payload byte after
//	        the stamp
//
// The sink recomputes the check from the bytes it receives, so a frame
// corrupted anywhere in its payload, or carrying another frame's stamp,
// is detected; a seq bitmap per trial detects duplicates.
const stampLen = 20

// bodyHash hashes the payload bytes after the stamp, eight at a time.
func bodyHash(b []byte) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for len(b) >= 8 {
		h ^= binary.LittleEndian.Uint64(b)
		h *= 0xff51afd7ed558ccd
		h ^= h >> 29
		b = b[8:]
	}
	for _, c := range b {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	return h
}

func stampCheck(seq uint64, flow, pkt uint32, bh uint64) uint32 {
	h := bh ^ seq*0xc2b2ae3d27d4eb4f ^ uint64(flow)<<32 ^ uint64(pkt)
	h *= 0x165667b19e3779f9
	h ^= h >> 32
	return uint32(h)
}

func putStamp(p []byte, seq uint64, flow, pkt uint32, bh uint64) {
	binary.LittleEndian.PutUint64(p, seq)
	binary.LittleEndian.PutUint32(p[8:], flow)
	binary.LittleEndian.PutUint32(p[12:], pkt)
	binary.LittleEndian.PutUint32(p[16:], stampCheck(seq, flow, pkt, bh))
}

// readStamp decodes a payload stamp and reports whether its check holds.
func readStamp(p []byte) (seq uint64, flow, pkt uint32, ok bool) {
	if len(p) < stampLen {
		return 0, 0, 0, false
	}
	seq = binary.LittleEndian.Uint64(p)
	flow = binary.LittleEndian.Uint32(p[8:])
	pkt = binary.LittleEndian.Uint32(p[12:])
	ok = binary.LittleEndian.Uint32(p[16:]) == stampCheck(seq, flow, pkt, bodyHash(p[stampLen:]))
	return seq, flow, pkt, ok
}

// pktUnknown marks streams whose flows have no intrinsic packet index;
// the generator then numbers a flow's first packet in each trial 0.
const pktUnknown = ^uint32(0)

// stream is a workload's deterministic frame sequence: seq alone fixes
// the flow, the packet index and the bytes, so the sink can verify any
// frame without shared state.
type stream interface {
	// flowOf maps seq to its flow and packet index (or pktUnknown).
	flowOf(seq uint64) (flow, pkt uint32)
	// key is the 5-tuple of flow.
	key(flow uint32) packet.FlowKey
	// build writes the stamped frame for (seq, flow, pkt) into dst
	// (capacity ≥ 2048) and returns it.
	build(dst []byte, seq uint64, flow, pkt uint32) []byte
	// exploit reports whether seq carries an IDS signature.
	exploit(seq uint64) bool
}

// keyOf derives flow idx's 5-tuple; salt comes from the seed so each seed
// offers different addresses.
func keyOf(salt uint32, proto uint8, idx uint32) packet.FlowKey {
	dport := uint16(9000)
	if proto == packet.ProtoTCP {
		dport = 80
	}
	return packet.FlowKey{
		SrcIP:   packet.IP(0x0a000000 | idx&0xffffff),
		DstIP:   packet.IP(0xac100000 | (salt>>4)&0xffff),
		SrcPort: uint16(1024 + salt%20000 + idx>>24),
		DstPort: dport,
		Proto:   proto,
	}
}

func builderFor(k packet.FlowKey) packet.Builder {
	return packet.Builder{
		SrcIP: k.SrcIP, DstIP: k.DstIP,
		SrcPort: k.SrcPort, DstPort: k.DstPort, Proto: k.Proto,
	}
}

// payloadOffset is where the L4 payload starts in frames of proto.
func payloadOffset(proto uint8) int {
	if proto == packet.ProtoTCP {
		return packet.EthHeaderLen + packet.IPv4HeaderLen + packet.TCPHeaderLen
	}
	return packet.EthHeaderLen + packet.IPv4HeaderLen + packet.UDPHeaderLen
}

// zipfStream draws each frame's flow from a fixed population with Zipf
// popularity; frames are prebuilt per flow so building one is a copy.
type zipfStream struct {
	salt      uint32
	proto     uint8
	frameLen  int
	off       int
	pop       []uint32 // seq -> flow, cycled
	templates []byte   // flows × frameLen
	fillHash  uint64   // bodyHash of the (identical) filler after the stamp
}

func newZipfStream(seed int64, flows int, zipfS float64, frameLen int) *zipfStream {
	r := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(r, zipfS, 1, uint64(flows-1))
	s := &zipfStream{
		salt: uint32(r.Int31()), proto: packet.ProtoUDP, frameLen: frameLen,
		off: payloadOffset(packet.ProtoUDP),
		pop: make([]uint32, 1<<20),
	}
	// Popularity ranks are shuffled over flow indices so the hot flows
	// are not also the numerically adjacent ones.
	perm := r.Perm(flows)
	for i := range s.pop {
		s.pop[i] = uint32(perm[z.Uint64()])
	}
	payload := make([]byte, frameLen-s.off)
	s.fillHash = bodyHash(payload[stampLen:])
	s.templates = make([]byte, flows*frameLen)
	for f := 0; f < flows; f++ {
		b := builderFor(s.key(uint32(f)))
		if _, err := b.Build(s.templates[f*frameLen:(f+1)*frameLen], payload); err != nil {
			panic(err) // fixed sizes: a failure is a bug
		}
	}
	return s
}

func (s *zipfStream) flowOf(seq uint64) (uint32, uint32) {
	return s.pop[seq&uint64(len(s.pop)-1)], pktUnknown
}

func (s *zipfStream) key(flow uint32) packet.FlowKey { return keyOf(s.salt, s.proto, flow) }

func (s *zipfStream) build(dst []byte, seq uint64, flow, pkt uint32) []byte {
	dst = dst[:s.frameLen]
	copy(dst, s.templates[int(flow)*s.frameLen:])
	putStamp(dst[s.off:], seq, flow, pkt, s.fillHash)
	return dst
}

func (s *zipfStream) exploit(uint64) bool { return false }

// newFlowStream offers only new flows: blocks of `group` flows send
// their 4 packets `group` frames apart, so a flow's later packets
// arrive while its first may still be resolving.
type newFlowStream struct {
	salt     uint32
	frameLen int
	off      int
	group    uint64
	fillHash uint64
	payload  []byte
}

const pktsPerNewFlow = 4

func newNewFlowStream(seed int64, frameLen int) *newFlowStream {
	r := rand.New(rand.NewSource(seed))
	s := &newFlowStream{
		salt: uint32(r.Int31()), frameLen: frameLen,
		off: payloadOffset(packet.ProtoUDP), group: 64,
	}
	s.payload = make([]byte, frameLen-s.off)
	s.fillHash = bodyHash(s.payload[stampLen:])
	return s
}

func (s *newFlowStream) flowOf(seq uint64) (uint32, uint32) {
	block, r := seq/(pktsPerNewFlow*s.group), seq%(pktsPerNewFlow*s.group)
	return uint32(block*s.group + r%s.group), uint32(r / s.group)
}

func (s *newFlowStream) key(flow uint32) packet.FlowKey {
	return keyOf(s.salt, packet.ProtoUDP, flow)
}

func (s *newFlowStream) build(dst []byte, seq uint64, flow, pkt uint32) []byte {
	putStamp(s.payload, seq, flow, pkt, s.fillHash)
	n, err := builderFor(s.key(flow)).Build(dst[:cap(dst)], s.payload)
	if err != nil {
		panic(err)
	}
	return dst[:n]
}

func (s *newFlowStream) exploit(uint64) bool { return false }

// appStream offers HTTP-like TCP flows with 256–1400 B payloads in
// generations of appFlows flows × appPkts packets, so new flows keep
// arriving; about 1% of flows carry an IDS signature in exactly one
// packet.
type appStream struct {
	salt    uint32
	perm    []uint32
	benign  []byte
	evil    []byte
	hashes  map[[2]int]uint64 // (payload length, exploit) -> bodyHash
	payload []byte
}

const (
	appFlows = 4096
	appPkts  = 16
	// Signature is one of nfs.DefaultIDSSignatures; it is spliced into
	// an otherwise benign body.
	appSignature = "' UNION SELECT password FROM users--"
)

func newAppStream(seed int64) *appStream {
	r := rand.New(rand.NewSource(seed))
	s := &appStream{salt: uint32(r.Int31()), hashes: map[[2]int]uint64{}, payload: make([]byte, 1500)}
	for _, p := range r.Perm(appFlows) {
		s.perm = append(s.perm, uint32(p))
	}
	var sb strings.Builder
	for sb.Len() < 1500 {
		sb.WriteString("GET /catalog/item?id=4821&ref=home HTTP/1.1\r\nHost: shop.example.com\r\n" +
			"User-Agent: bench/1.0\r\nAccept: text/html,application/xhtml+xml\r\nCookie: s=8f3a9c\r\n\r\n")
	}
	s.benign = []byte(sb.String()[:1500])
	s.evil = append([]byte(nil), s.benign...)
	copy(s.evil[40:], appSignature)
	return s
}

func (s *appStream) flowOf(seq uint64) (uint32, uint32) {
	gen, r := seq/(appFlows*appPkts), seq%(appFlows*appPkts)
	return uint32(gen*appFlows) + s.perm[r%appFlows], uint32(r / appFlows)
}

func (s *appStream) key(flow uint32) packet.FlowKey {
	return keyOf(s.salt, packet.ProtoTCP, flow)
}

// mix is a per-flow hash fixing payload length and the exploit.
func (s *appStream) mix(flow uint32) uint64 {
	h := (uint64(flow) ^ uint64(s.salt)<<32) * 0x9e3779b97f4a7c15
	return h ^ h>>31
}

// flagged reports whether flow carries a signature, and in which packet.
func (s *appStream) flagged(flow uint32) (bool, uint32) {
	h := s.mix(flow)
	return h%100 == 7, 1 + uint32(h>>8)%(appPkts-2)
}

func (s *appStream) payloadLen(flow uint32) int {
	return 256 + int(s.mix(flow)>>20)%(1400-256+1)
}

func (s *appStream) exploit(seq uint64) bool {
	flow, pkt := s.flowOf(seq)
	bad, at := s.flagged(flow)
	return bad && pkt == at
}

func (s *appStream) build(dst []byte, seq uint64, flow, pkt uint32) []byte {
	n := s.payloadLen(flow)
	body, ex := s.benign, 0
	if bad, at := s.flagged(flow); bad && pkt == at {
		body, ex = s.evil, 1
	}
	p := s.payload[:n]
	copy(p[stampLen:], body)
	bh, ok := s.hashes[[2]int{n, ex}]
	if !ok {
		bh = bodyHash(p[stampLen:])
		s.hashes[[2]int{n, ex}] = bh
	}
	putStamp(p, seq, flow, pkt, bh)
	m, err := builderFor(s.key(flow)).Build(dst[:cap(dst)], p)
	if err != nil {
		panic(err)
	}
	return dst[:m]
}
