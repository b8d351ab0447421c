package main

import (
	"fmt"
	"log"
	"os"

	"tsperr/internal/activity"
	"tsperr/internal/cliutil"
	"tsperr/internal/dta"
	"tsperr/internal/errormodel"
	"tsperr/internal/isa"
	"tsperr/internal/netlist"
	"tsperr/internal/numeric"
)

func setWord(in map[netlist.GateID]bool, gates [32]netlist.GateID, w uint32) {
	for i := 0; i < 32; i++ {
		in[gates[i]] = (w>>uint(i))&1 == 1
	}
}

// runDTADump demonstrates the DTA flow of Figure 1 on the generated
// gate-level netlists (tsperr dtadump): it simulates a stimulus, records
// per-cycle activation (the VCD input of Algorithm 1), and prints the
// dynamic timing slack of each cycle, contrasting it with the static (STA)
// slack.
func runDTADump(args []string) {
	fs := newFlagSet("dtadump", "[-unit adder|control] [-cycles N] [-vcd file] [-timeout D]")
	unit := fs.String("unit", "adder", "netlist to analyze: adder or control")
	cycles := fs.Int("cycles", 12, "stimulus length")
	vcdPath := fs.String("vcd", "", "also write the activity trace as VCD to this file")
	timeout := fs.Duration("timeout", 0, "abort the dump after this duration (0 = none)")
	_ = fs.Parse(args)
	ctx, cancel := cliutil.Context(*timeout)
	defer cancel()

	m, err := errormodel.NewMachine(errormodel.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	rng := numeric.NewRNG(2019)

	var (
		n        *netlist.Netlist
		analyzer *dta.Analyzer
		tr       *activity.Trace
	)
	switch *unit {
	case "adder":
		n = m.Adder.N
		analyzer = m.AdderDTA
		sim, err := activity.NewSimulator(n)
		if err != nil {
			log.Fatal(err)
		}
		tr = &activity.Trace{NumGates: n.NumGates()}
		for t := 0; t < *cycles; t++ {
			if err := ctx.Err(); err != nil {
				log.Fatalf("aborted at cycle %d: %v", t, err)
			}
			in := map[netlist.GateID]bool{}
			a := uint32(rng.Uint64())
			b := uint32(rng.Uint64())
			if t%4 == 3 { // periodically force a full carry chain
				a, b = 0xFFFFFFFF, 1
			}
			setWord(in, m.Adder.A, a)
			setWord(in, m.Adder.B, b)
			tr.Sets = append(tr.Sets, sim.Cycle(in))
		}
	case "control":
		n = m.Ctrl.N
		analyzer = m.CtrlDTA
		sim, err := activity.NewSimulator(n)
		if err != nil {
			log.Fatal(err)
		}
		tr = &activity.Trace{NumGates: n.NumGates()}
		ops := []isa.Inst{
			{Op: isa.OpAdd, Rd: 1, Rs1: 2, Rs2: 3},
			{Op: isa.OpLw, Rd: 4, Rs1: 1, Imm: 8},
			{Op: isa.OpBne, Rs1: 4, Rs2: 0, Imm: -2},
			{Op: isa.OpXor, Rd: 5, Rs1: 4, Rs2: 1},
		}
		for t := 0; t < *cycles; t++ {
			if err := ctx.Err(); err != nil {
				log.Fatalf("aborted at cycle %d: %v", t, err)
			}
			in := map[netlist.GateID]bool{}
			setWord(in, m.Ctrl.Instr, ops[t%len(ops)].Encode())
			setWord(in, m.Ctrl.ExResult, uint32(rng.Uint64()))
			tr.Sets = append(tr.Sets, sim.Cycle(in))
		}
	default:
		log.Fatalf("unknown unit %q", *unit)
	}

	if *vcdPath != "" {
		f, err := os.Create(*vcdPath)
		if err != nil {
			log.Fatal(err)
		}
		if err := activity.WriteVCD(f, tr, *unit); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *vcdPath)
	}

	fmt.Printf("unit %s: %d gates, clock period %.1f ps (%.0f MHz)\n",
		*unit, n.NumGates(), m.WorkingPeriodPs, m.WorkingFreqMHz())
	fmt.Printf("%6s %12s %12s %12s %14s\n", "cycle", "activated", "DTS mean", "DTS sigma", "P(error)")
	for t := 0; t < tr.Cycles(); t++ {
		if err := ctx.Err(); err != nil {
			log.Fatalf("aborted at cycle %d: %v", t, err)
		}
		var eps []netlist.GateID
		for s := 0; s < n.Stages; s++ {
			eps = append(eps, n.Endpoints(s)...)
		}
		form, ok := analyzer.StageDTS(eps, t, tr)
		if !ok {
			fmt.Printf("%6d %12d %12s %12s %14s\n", t, tr.Sets[t].Count(), "-", "-", "no active path")
			continue
		}
		fmt.Printf("%6d %12d %12.1f %12.1f %14.3g\n",
			t, tr.Sets[t].Count(), form.Mean, form.Std(), dta.ErrorProbability(form))
	}
}
