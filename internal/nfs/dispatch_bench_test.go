package nfs

import (
	"fmt"
	"testing"

	"sdnfv/internal/nf"
	"sdnfv/internal/packet"
)

// BenchmarkNFDispatch measures the NF dispatch cost per packet of the
// batch interface (one call per burst), at the burst sizes the engine
// actually produces. The out-array clear mirrors the engine's per-burst
// zeroing. ns/op is per packet.
//
//	go test -bench NFDispatch -benchmem ./internal/nfs
func BenchmarkNFDispatch(b *testing.B) {
	bd := packet.Builder{
		SrcIP: packet.IPv4(10, 0, 0, 1), DstIP: packet.IPv4(10, 1, 0, 1),
		SrcPort: 5000, DstPort: 80, Proto: packet.ProtoUDP,
	}
	frame := make([]byte, 512)
	n, err := bd.Build(frame, []byte("0123456789abcdef"))
	if err != nil {
		b.Fatal(err)
	}
	v, err := packet.Parse(frame[:n])
	if err != nil {
		b.Fatal(err)
	}

	for _, burst := range []int{1, 8, 32, 64} {
		batch := make([]nf.Packet, burst)
		for i := range batch {
			batch[i] = nf.Packet{View: &v, Key: v.FlowKey()}
		}
		out := make([]nf.Decision, burst)
		cases := []struct {
			name string
			fn   nf.BatchFunction
		}{
			{"noop", NoOp{}},
			{"counter", &Counter{}},
		}
		for _, tc := range cases {
			b.Run(fmt.Sprintf("%s/burst=%d", tc.name, burst), func(b *testing.B) {
				ctx := &nf.Context{}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i += burst {
					k := burst
					if rem := b.N - i; rem < k {
						k = rem
					}
					clear(out[:k])
					tc.fn.ProcessBatch(ctx, batch[:k], out[:k])
				}
			})
		}
	}
}
