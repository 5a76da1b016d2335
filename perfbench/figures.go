package main

import (
	"math"
	"reflect"
	"runtime"
	"strconv"
	"time"

	"nestless/internal/figures"
	"nestless/internal/netperf"
	"nestless/internal/netsim"
	"nestless/internal/report"
	"nestless/internal/scenario"
)

// figures-micro: figures.Fig2, Fig4 and Fig10 at full windows, with the
// benchmark's seed and nproc workers. This is the packet-level half of
// the simulator: netsim, virtio, hostlo, brfusion and the sim stations.
// No cluster layer runs.

var (
	serverModes = []scenario.Mode{scenario.ModeNAT, scenario.ModeBrFusion, scenario.ModeNoCont}
	podModes    = []scenario.CCMode{scenario.CCSameNode, scenario.CCHostlo, scenario.CCNAT, scenario.CCOverlay}
)

// figureSet runs the three figures and returns their tables in order:
// Fig. 2, Fig. 4a, Fig. 4b, Fig. 10a, Fig. 10b.
func figureSet(o figures.Opts) []*report.Table {
	f2 := figures.Fig2(o)
	t4, l4 := figures.Fig4(o)
	t10, l10 := figures.Fig10(o)
	return []*report.Table{f2, t4, l4, t10, l10}
}

// figureCells counts the scenario runs of one figure set.
func figureCells(quick bool) int {
	sizes, rr := len(netperf.Sizes), len(netperf.RRSizes)
	if quick {
		sizes, rr = 3, 2
	}
	return 2 + (sizes+rr)*len(serverModes) + (sizes+rr)*len(podModes)
}

func runFigures(b *bench) error {
	o := figures.Opts{Seed: b.seed, Quick: b.tiny, Workers: runtime.NumCPU()}
	b.note("Figs. 2, 4 and 10, %d scenario runs per set, %d workers, quick=%v", figureCells(o.Quick), o.Workers, o.Quick)

	// Set-up: building one topology of each kind the figures measure.
	setup, err := setupMedian(b.setupReps(), func() error {
		for _, m := range serverModes {
			if _, err := scenario.NewServerClientCfg(scenario.Config{Seed: o.Seed}, m, 5001, 7001); err != nil {
				return err
			}
		}
		for _, m := range podModes {
			if _, err := scenario.NewPodPairCfg(scenario.Config{Seed: o.Seed}, m, 5001); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	b.startTimed()
	var first []*report.Table
	rt0 := readRuntime()
	ops, err := repeat(b.phase(), 2, nil, func(i int) error {
		tables := figureSet(o)
		if i == 0 {
			first = tables
			checkOrderings(b, tables)
			return nil
		}
		b.check(sameTables(tables, first), "figure set %d differs from the first with the same seed", i)
		return nil
	})
	if err != nil {
		return err
	}
	rt := readRuntime().sub(rt0)
	wall, cpu := medians(ops)
	b.note("figures: %d ops, median %.3f s wall, %.3f s CPU", len(ops), wall, cpu)
	reportAccuracy(b, first)
	if !b.traced {
		b.set("setup_s", setup)
		b.set("wall_s", wall)
		b.set("cpu_s", cpu)
		b.set("work_per_s", float64(figureCells(o.Quick))/wall)
		return nil
	}
	b.setRuntime(rt, len(ops), 0)

	tr := newTracer()
	var steps uint64
	n, overhead, err := alternate(b.phase(), tr, nil, func(t *tracer, _ int) error {
		tables, s, err := tracedFigures(t, o)
		if !b.check(err == nil, "traced figures: %v", err) {
			return nil
		}
		if t == tr {
			steps += s
		}
		b.check(sameTables(tables, first), "traced figure tables differ from the figures package's")
		return nil
	})
	if err != nil {
		return err
	}
	nf := float64(n)
	b.set("scenario.build.self_s", tr.selfS("scenario.build")/nf)
	b.set("netperf.stream.self_s", tr.selfS("netperf.stream")/nf)
	b.set("netperf.rr.self_s", tr.selfS("netperf.rr")/nf)
	b.set("sim.steps", float64(steps)/nf)
	b.set("sim.ns_per_step", float64((tr.self["netperf.stream"]+tr.self["netperf.rr"]).Nanoseconds())/float64(steps))
	b.set("trace.overhead_s", overhead)
	b.writeTrace(tr)
	return nil
}

// sameTables compares every cell of two figure sets (titles aside).
func sameTables(a, b []*report.Table) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i].Header, b[i].Header) || !reflect.DeepEqual(a[i].Rows, b[i].Rows) {
			return false
		}
	}
	return true
}

// netperfEnds are the two namespaces and the address a netperf run uses.
type netperfEnds struct {
	client, server *netsim.NetNS
	dial           netsim.IPv4
}

// windows are the figures' measurement windows: stream warm-up and
// length, and the request/response length.
func windows(quick bool) (warm, dur, rr time.Duration) {
	if quick {
		return 10 * time.Millisecond, 40 * time.Millisecond, 30 * time.Millisecond
	}
	return 30 * time.Millisecond, 120 * time.Millisecond, 100 * time.Millisecond
}

// tracedFigures runs every scenario of the three figures serially, in
// the figures package's order, with spans around each topology build
// and each netperf run, and assembles the same tables. It returns the
// simulator steps the scenario engines executed.
func tracedFigures(tr *tracer, o figures.Opts) ([]*report.Table, uint64, error) {
	root := tr.begin("figures")
	defer tr.end(root)
	cfg := scenario.Config{Seed: o.Seed}
	warm, dur, rrDur := windows(o.Quick)
	sizes, rrSizes := netperf.Sizes, netperf.RRSizes
	var steps uint64
	stream := func(sc *scenario.Base, ends netperfEnds, size int) netperf.StreamResult {
		var r netperf.StreamResult
		tr.do("netperf.stream", func() {
			r = netperf.RunTCPStream(sc.Eng, netperf.StreamConfig{
				Client: ends.client, Server: ends.server, DialAddr: ends.dial,
				Port: 5001, MsgSize: size, Warmup: warm, Duration: dur,
			})
		})
		return r
	}
	rr := func(sc *scenario.Base, ends netperfEnds, size int) netperf.RRResult {
		var r netperf.RRResult
		tr.do("netperf.rr", func() {
			r = netperf.RunUDPRR(sc.Eng, netperf.RRConfig{
				Client: ends.client, Server: ends.server, DialAddr: ends.dial,
				Port: 7001, MsgSize: size, Duration: rrDur,
			})
		})
		return r
	}
	var err error
	server := func(m scenario.Mode, ports ...uint16) (*scenario.ServerClient, netperfEnds) {
		var sc *scenario.ServerClient
		tr.do("scenario.build", func() { sc, err = scenario.NewServerClientCfg(cfg, m, ports...) })
		if err != nil {
			return nil, netperfEnds{}
		}
		return sc, netperfEnds{sc.Client, sc.ServerNS, sc.DialAddr}
	}
	pair := func(m scenario.CCMode, port uint16) (*scenario.PodPair, netperfEnds) {
		var pp *scenario.PodPair
		tr.do("scenario.build", func() { pp, err = scenario.NewPodPairCfg(cfg, m, port) })
		if err != nil {
			return nil, netperfEnds{}
		}
		return pp, netperfEnds{pp.ANS, pp.BNS, pp.DialAddr}
	}
	if o.Quick {
		sizes, rrSizes = []int{256, 1280, 8192}, []int{256, 1280}
	}

	// Fig. 2: stream then RR on one topology per mode, at 1280 B.
	fig2 := report.New("", "solution", "throughput_mbps", "rr_latency_us", "rr_stddev_us")
	for _, m := range []scenario.Mode{scenario.ModeNAT, scenario.ModeNoCont} {
		sc, ends := server(m, 5001, 7001)
		if err != nil {
			return nil, 0, err
		}
		tp := stream(sc.Base, ends, 1280)
		r := rr(sc.Base, ends, 1280)
		steps += sc.Eng.State().Steps
		fig2.AddRow(string(m), tp.ThroughputMbps, float64(r.MeanRTT)/1e3, float64(r.StddevRTT)/1e3)
	}

	// Fig. 4: one topology per (size, mode) cell.
	t4 := report.New("", "msg_size", "nat", "brfusion", "nocont")
	l4 := report.New("", "msg_size", "nat", "nat_sd", "brfusion", "brfusion_sd", "nocont", "nocont_sd")
	for _, size := range sizes {
		row := []interface{}{size}
		for _, m := range serverModes {
			sc, ends := server(m, 5001)
			if err != nil {
				return nil, 0, err
			}
			row = append(row, stream(sc.Base, ends, size).ThroughputMbps)
			steps += sc.Eng.State().Steps
		}
		t4.AddRow(row...)
	}
	for _, size := range rrSizes {
		row := []interface{}{size}
		for _, m := range serverModes {
			sc, ends := server(m, 7001)
			if err != nil {
				return nil, 0, err
			}
			r := rr(sc.Base, ends, size)
			steps += sc.Eng.State().Steps
			row = append(row, float64(r.MeanRTT)/1e3, float64(r.StddevRTT)/1e3)
		}
		l4.AddRow(row...)
	}

	// Fig. 10: one pod pair per (size, mode) cell.
	if o.Quick {
		sizes, rrSizes = []int{256, 1024, 8192}, []int{256, 1024}
	}
	t10 := report.New("", "msg_size", "samenode", "hostlo", "nat", "overlay")
	l10 := report.New("", "msg_size", "samenode", "sn_sd", "hostlo", "hl_sd", "nat", "nat_sd", "overlay", "ov_sd")
	for _, size := range sizes {
		row := []interface{}{size}
		for _, m := range podModes {
			pp, ends := pair(m, 5001)
			if err != nil {
				return nil, 0, err
			}
			row = append(row, stream(pp.Base, ends, size).ThroughputMbps)
			steps += pp.Eng.State().Steps
		}
		t10.AddRow(row...)
	}
	for _, size := range rrSizes {
		row := []interface{}{size}
		for _, m := range podModes {
			pp, ends := pair(m, 7001)
			if err != nil {
				return nil, 0, err
			}
			r := rr(pp.Base, ends, size)
			steps += pp.Eng.State().Steps
			row = append(row, float64(r.MeanRTT)/1e3, float64(r.StddevRTT)/1e3)
		}
		l10.AddRow(row...)
	}
	return []*report.Table{fig2, t4, l4, t10, l10}, steps, nil
}

// cell reads one numeric table cell; row is matched on its first column.
func cell(t *report.Table, row, col string) float64 {
	c := -1
	for i, h := range t.Header {
		if h == col {
			c = i
		}
	}
	for _, r := range t.Rows {
		if c >= 0 && r[0] == row {
			v, err := strconv.ParseFloat(r[c], 64)
			if err == nil {
				return v
			}
		}
	}
	return math.NaN()
}

// checkOrderings asserts the paper's orderings at every message size:
// BrFusion above NAT in throughput (Fig. 4a) and Hostlo below NAT in
// latency (Fig. 10b).
func checkOrderings(b *bench, t []*report.Table) {
	for _, r := range t[1].Rows {
		b.check(cell(t[1], r[0], "brfusion") > cell(t[1], r[0], "nat"),
			"Fig. 4a at %s B: BrFusion %s Mbps not above NAT %s", r[0], r[2], r[1])
	}
	for _, r := range t[4].Rows {
		b.check(cell(t[4], r[0], "hostlo") < cell(t[4], r[0], "nat"),
			"Fig. 10b at %s B: Hostlo %s µs not below NAT %s", r[0], r[3], r[5])
	}
}

// reportAccuracy prints the simulated headline numbers beside the
// paper's (EXPERIMENTS.md), with the error. Informational, never gated.
func reportAccuracy(b *bench, t []*report.Table) {
	pct := func(a, b float64) float64 { return (a/b - 1) * 100 }
	line := func(what string, paper, got float64, unit string) {
		b.note("accuracy: %-34s paper %+7.1f%s  simulated %+7.1f%s  error %+6.1f%s",
			what, paper, unit, got, unit, got-paper, unit)
	}
	ratio := func(what string, paper, got float64) {
		b.note("accuracy: %-34s paper %7.2fx  simulated %7.2fx  error %+6.1f%%",
			what, paper, got, pct(got, paper))
	}
	if b.tiny {
		return // quick windows, and Fig. 10 has no 1024 B row
	}
	line("Fig. 2 NAT vs NoCont throughput", -68, pct(cell(t[0], "nat", "throughput_mbps"), cell(t[0], "nocont", "throughput_mbps")), "%")
	line("Fig. 2 NAT vs NoCont latency", 31, pct(cell(t[0], "nat", "rr_latency_us"), cell(t[0], "nocont", "rr_latency_us")), "%")
	ratio("Fig. 4 BrFusion/NAT throughput @1280", 2.1, cell(t[1], "1280", "brfusion")/cell(t[1], "1280", "nat"))
	line("Fig. 4 BrFusion vs NAT latency @1280", -18.4, pct(cell(t[2], "1280", "brfusion"), cell(t[2], "1280", "nat")), "%")
	ratio("Fig. 10 SameNode/Hostlo throughput", 5.3, cell(t[3], "1024", "samenode")/cell(t[3], "1024", "hostlo"))
	line("Fig. 10 Hostlo vs NAT throughput", 17.9, pct(cell(t[3], "1024", "hostlo"), cell(t[3], "1024", "nat")), "%")
	line("Fig. 10 Hostlo vs NAT latency", -87.3, pct(cell(t[4], "1024", "hostlo"), cell(t[4], "1024", "nat")), "%")
	ratio("Fig. 10 Hostlo/SameNode latency", 2, cell(t[4], "1024", "hostlo")/cell(t[4], "1024", "samenode"))
}
