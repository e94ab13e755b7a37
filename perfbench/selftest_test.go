package main

import (
	"io"
	"math"
	"strings"
	"testing"
	"time"

	"sdnfv/internal/packet"
)

// fakeIngress stands in for a host: it hands each admitted frame
// straight to the benchmark sink, optionally dropping, duplicating or
// corrupting some, or refusing the part of the load above a capacity.
type fakeIngress struct {
	s         *sink
	n         int
	dropEvery int
	dupEvery  int
	flipEvery int
	capKpps   float64 // trials offered above this lose 10% of frames
}

func (f *fakeIngress) IngestBurst(fs [][]byte) (int, int) {
	if tr := f.s.cur.Load(); f.capKpps > 0 && burstLen*1e6/tr.periodNs > f.capKpps {
		fs = fs[:len(fs)-len(fs)/10]
	}
	for _, fr := range fs {
		f.n++
		if f.dropEvery > 0 && f.n%f.dropEvery == 0 {
			continue
		}
		if f.flipEvery > 0 && f.n%f.flipEvery == 0 {
			fr = append([]byte(nil), fr...)
			fr[len(fr)-1] ^= 0x40
		}
		f.s.egress(1, fr, nil)
		if f.dupEvery > 0 && f.n%f.dupEvery == 0 {
			f.s.egress(1, fr, nil)
		}
	}
	return len(fs), len(fs)
}

func fakeBench(in *fakeIngress, st stream, lim limits) *bench {
	in.s = &sink{st: st}
	r := &rig{st: st, sink: in.s, in: nil}
	b := &bench{w: workload{name: "selftest", lim: lim}, lim: lim, r: r, log: io.Discard,
		diverted: map[uint64]bool{}, record: map[string]any{}}
	b.gen = newGenerator(st, in)
	return b
}

var testLimits = limits{
	nominalKpps: 20, overloadKpps: 200, p99LimitUs: 1e9, lossLimit: 0.001,
	ladderBase: 5, ladderRatio: 1.05, ladderRungs: 64,
}

func TestSinkCleanRun(t *testing.T) {
	in := &fakeIngress{}
	b := fakeBench(in, newZipfStream(7, 1024, 1.1, 64), testLimits)
	res := b.runTrial(20, 100*time.Millisecond)
	if len(res.Errors) != 0 || res.Lost != 0 || res.Delivered != res.Offered {
		t.Fatalf("clean run: errors %v lost %d delivered %d/%d", res.Errors, res.Lost, res.Delivered, res.Offered)
	}
}

func TestSinkDropRaisesLoss(t *testing.T) {
	in := &fakeIngress{dropEvery: 10}
	b := fakeBench(in, newZipfStream(7, 1024, 1.1, 64), testLimits)
	res := b.runTrial(20, 100*time.Millisecond)
	if got := res.lossRatio(); math.Abs(got-0.1) > 0.01 {
		t.Fatalf("dropping every 10th frame: loss ratio %.4f, want 0.1", got)
	}
	if res.pass(testLimits) {
		t.Fatal("a trial losing 10% passed the ladder criteria")
	}
}

func TestSinkRejectsDuplicates(t *testing.T) {
	in := &fakeIngress{dupEvery: 50}
	b := fakeBench(in, newZipfStream(7, 1024, 1.1, 64), testLimits)
	res := b.runTrial(20, 100*time.Millisecond)
	if !hasError(res.Errors, "duplicate") {
		t.Fatalf("duplicated frames not reported: %v", res.Errors)
	}
}

func TestSinkRejectsCorruption(t *testing.T) {
	for _, st := range []stream{newZipfStream(7, 1024, 1.1, 64), newAppStream(7), newNewFlowStream(7, 64)} {
		in := &fakeIngress{flipEvery: 50}
		b := fakeBench(in, st, testLimits)
		res := b.runTrial(20, 100*time.Millisecond)
		if !hasError(res.Errors, "corrupted") {
			t.Fatalf("%T: corrupted payloads not reported: %v", st, res.Errors)
		}
	}
}

// TestLadderFindsCapacity: against a sink that loses frames above a
// known capacity, the staircase lands within one rung of it.
func TestLadderFindsCapacity(t *testing.T) {
	const capKpps = 40
	in := &fakeIngress{capKpps: capKpps}
	b := fakeBench(in, newZipfStream(7, 1024, 1.1, 64), testLimits)
	rate, reversals := b.ladder(2*time.Second, 50*time.Millisecond)
	lo, hi := capKpps/testLimits.ladderRatio, capKpps*testLimits.ladderRatio
	if rate < lo || rate > hi {
		t.Fatalf("ladder estimate %.2f kpps (reversals %v), capacity %d ± one rung [%.2f, %.2f]",
			rate, reversals, capKpps, lo, hi)
	}
}

func TestStampRoundTrip(t *testing.T) {
	st := newAppStream(3)
	buf := make([]byte, 0, 2048)
	for seq := uint64(0); seq < 3*appFlows*appPkts; seq += 97 {
		flow, pkt := st.flowOf(seq)
		v, err := packet.Parse(st.build(buf, seq, flow, pkt))
		if err != nil {
			t.Fatal(err)
		}
		gs, gf, gp, ok := readStamp(v.Payload())
		if !ok || gs != seq || gf != flow || gp != pkt || v.FlowKey() != st.key(flow) {
			t.Fatalf("seq %d: stamp (%d,%d,%d,%v)", seq, gs, gf, gp, ok)
		}
		if want := st.exploit(seq); strings.Contains(string(v.Payload()), "UNION SELECT") != want {
			t.Fatalf("seq %d: exploit payload %v, want %v", seq, !want, want)
		}
	}
}

func hasError(errs []string, sub string) bool {
	for _, e := range errs {
		if strings.Contains(e, sub) {
			return true
		}
	}
	return false
}
