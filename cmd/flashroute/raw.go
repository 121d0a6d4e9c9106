package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/flashroute/flashroute"
	"github.com/flashroute/flashroute/internal/metrics"
)

type rawOpts struct {
	cidrs           string
	source          string
	seed            int64
	split, gap      int
	pps             int
	senders         int
	receivers       int
	batch           int
	preprobe        string
	span            int
	preprobeRetries int
	forwardRetries  int
	forwardTimeout  time.Duration
	noRedund        bool
	exhaustive      bool
	sendRetries     int
	checkpoint      string
	ckptEvery       int
	resumeFrom      string
	excludeF        string
	output          string
	binOutput       string
}

// scanRaw is the -transport raw path: the same engine, paced by the wall
// clock, probing real address space through the Linux raw-socket backend
// (sendmmsg/recvmmsg when -batch > 1). Needs CAP_NET_RAW, -source and
// -cidrs; impairment and fault flags are simulation-only and ignored.
func scanRaw(ctx context.Context, o rawOpts) {
	if o.cidrs == "" {
		fatal(errors.New("-transport raw needs -cidrs to define the target address space"))
	}
	if o.source == "" {
		fatal(errors.New("-transport raw needs -source (the vantage point's IPv4 address)"))
	}
	src, err := flashroute.ParseAddr(o.source)
	if err != nil {
		fatal(fmt.Errorf("bad -source: %w", err))
	}
	u, err := flashroute.ParseTargetCIDRs(strings.Split(o.cidrs, ","))
	if err != nil {
		fatal(err)
	}
	switch o.preprobe {
	case "off", "random":
	default:
		fatal(fmt.Errorf("-preprobe %q is not available with -transport raw (use random or off)", o.preprobe))
	}

	cfg := flashroute.DefaultConfig()
	cfg.Blocks = u.NumBlocks()
	cfg.Targets = u.RandomTargets(o.seed)
	cfg.BlockOf = u.BlockOf
	cfg.Source = src
	cfg.Seed = o.seed
	cfg.SplitTTL = uint8(o.split)
	if o.gap == 0 {
		cfg.GapLimitZero = true
	} else {
		cfg.GapLimit = uint8(o.gap)
	}
	if o.pps == 0 {
		cfg.Unthrottled = true
	} else {
		cfg.PPS = o.pps
	}
	cfg.Senders = o.senders
	cfg.Receivers = o.receivers
	cfg.Batch = o.batch
	if o.preprobe == "off" {
		cfg.Preprobe = flashroute.PreprobeOff
	}
	cfg.ProximitySpan = o.span
	cfg.PreprobeRetries = o.preprobeRetries
	cfg.ForwardRetries = o.forwardRetries
	cfg.ForwardTimeout = o.forwardTimeout
	cfg.NoRedundancyElimination = o.noRedund
	cfg.Exhaustive = o.exhaustive
	cfg.SendRetries = o.sendRetries
	cfg.CollectRoutes = o.output != "" || o.binOutput != ""
	if o.checkpoint != "" {
		cfg.CheckpointSink = checkpointSink(o.checkpoint)
		cfg.CheckpointEvery = o.ckptEvery
	}

	excl := flashroute.ReservedExclusions()
	if o.excludeF != "" {
		f, err := os.Open(o.excludeF)
		if err != nil {
			fatal(err)
		}
		user, err := flashroute.ReadExclusions(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		excl.Merge(user)
	}
	cfg.Skip = u.SkipFor(excl)

	conn, err := flashroute.DialRaw()
	if err != nil {
		fatal(err)
	}
	defer conn.Close()
	fmt.Printf("raw-socket scan: %d /24 blocks, source %s, batch %d\n",
		u.NumBlocks(), o.source, o.batch)

	var sc *flashroute.Scanner
	if o.resumeFrom != "" {
		snap, rerr := os.ReadFile(o.resumeFrom)
		if rerr != nil {
			fatal(rerr)
		}
		fmt.Printf("resuming from checkpoint %s\n", o.resumeFrom)
		sc, err = flashroute.ResumeScanner(cfg, conn, flashroute.RealClock(), snap)
		if errors.Is(err, flashroute.ErrCheckpointComplete) {
			fmt.Printf("checkpoint %s is from a completed scan; nothing to resume\n", o.resumeFrom)
			return
		}
	} else {
		sc, err = flashroute.NewScanner(cfg, conn, flashroute.RealClock())
	}
	if err != nil {
		fatal(err)
	}
	res, err := sc.RunContext(ctx)
	if err != nil {
		fatal(err)
	}
	reportInterrupt(res.Interrupted(), o.checkpoint)

	fmt.Printf("scan time:            %v\n", res.ScanTime())
	fmt.Printf("probes sent:          %d (preprobing: %d)\n", res.Probes(), res.PreprobeProbes())
	fmt.Printf("interfaces found:     %d\n", res.InterfaceCount())
	fmt.Printf("rounds:               %d\n", res.Rounds())
	fmt.Printf("distances measured:   %d, predicted: %d\n", res.DistancesMeasured(), res.DistancesPredicted())
	fmt.Printf("mismatched responses: %d (in-flight destination modification)\n", res.MismatchedResponses())

	resil := metrics.Resilience{
		Retransmitted:       res.RetransmittedProbes(),
		DuplicatesDiscarded: res.DuplicateResponses(),
		ReadErrors:          res.ReadErrors(),
		SendErrors:          res.SendErrors(),
		SendRetries:         res.SendRetries(),
	}
	if resil.Any() {
		if err := resil.WriteText(os.Stdout); err != nil {
			fatal(err)
		}
	}
	if n := res.CheckpointErrors(); n > 0 {
		fmt.Fprintf(os.Stderr, "flashroute: %d checkpoint(s) failed to persist\n", n)
	}

	if o.output != "" {
		f, err := os.Create(o.output)
		if err != nil {
			fatal(err)
		}
		if err := res.WriteCSV(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("routes written to %s\n", o.output)
	}
	if o.binOutput != "" {
		f, err := os.Create(o.binOutput)
		if err != nil {
			fatal(err)
		}
		n, err := flashroute.WriteBinary(f, res)
		if err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("%d binary records written to %s\n", n, o.binOutput)
	}
}
