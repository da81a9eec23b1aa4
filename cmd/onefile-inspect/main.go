// Command onefile-inspect examines a OneFile persistent image — either an
// NVM snapshot file (written with onefile.NVM.SaveSnapshot) or, with -file,
// an mmap-backed device file (internal/pmem/filedev) straight off a crash:
// it re-attaches a read-only engine, runs null recovery, and reports the
// heap's health — durable transaction sequence, root slots, allocator
// accounting and audit.
//
// Usage:
//
//	onefile-inspect [-heap N] [-max-threads N] [-max-stores N] snapshot.bin
//	onefile-inspect -file [-engine NAME] device.img
//
// The sizing flags must match the options the heap was created with
// (defaults match onefile's defaults). -file never mutates the image: the
// device file is read, not opened, so inspecting the sole surviving copy of
// a crash image is safe.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"onefile/internal/core"
	"onefile/internal/crashcheck"
	"onefile/internal/pmem"
	"onefile/internal/pmem/filedev"
	"onefile/internal/talloc"
	"onefile/internal/tm"
)

var (
	heapFlag    = flag.Int("heap", 1<<22, "heap size in words the image was created with")
	threadsFlag = flag.Int("max-threads", 128, "MaxThreads the image was created with")
	storesFlag  = flag.Int("max-stores", 1<<14, "MaxStores the image was created with")
	rootsFlag   = flag.Bool("roots", true, "print non-zero root slots")
	fileFlag    = flag.Bool("file", false, "the argument is an mmap-backed device file, not a snapshot")
	engineFlag  = flag.String("engine", "OF-LF-PTM", "persistent engine the image belongs to (see onefile-crashcheck -list)")
)

func main() {
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(flag.Arg(0)); err != nil {
		fmt.Fprintln(os.Stderr, "onefile-inspect:", err)
		os.Exit(1)
	}
}

func run(path string) error {
	return inspect(path, os.Stdout, options{
		heapWords:  *heapFlag,
		maxThreads: *threadsFlag,
		maxStores:  *storesFlag,
		showRoots:  *rootsFlag,
		deviceFile: *fileFlag,
		engine:     *engineFlag,
	})
}

type options struct {
	heapWords, maxThreads, maxStores int
	showRoots                        bool
	deviceFile                       bool
	engine                           string
}

// inspect re-attaches a read-only engine to the image at path, runs null
// recovery, and writes the report to out.
func inspect(path string, out io.Writer, o options) error {
	def, err := crashcheck.EngineByName(o.engine)
	if err != nil {
		return err
	}
	opts := []tm.Option{
		tm.WithHeapWords(o.heapWords),
		tm.WithMaxThreads(o.maxThreads),
		tm.WithMaxStores(o.maxStores),
	}
	cfg := def.DeviceConfig(pmem.StrictMode, 0, opts...)

	var dev *pmem.Sim
	if o.deviceFile {
		// Read, don't Open: Open would mark the superblock dirty and Close
		// would mark it clean — both destroy post-mortem evidence.
		info, raw, pairs, err := filedev.ReadImage(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "device file:   %s\n", path)
		fmt.Fprintf(out, "layout:        version %d, %d raw words, %d TM words\n",
			info.LayoutVersion, info.RawWords, info.PairWords)
		if info.Clean {
			fmt.Fprintln(out, "shutdown:      clean (device was Closed in order)")
		} else {
			fmt.Fprintln(out, "shutdown:      DIRTY — crash image (holder died before Close)")
		}
		if len(raw) != cfg.RawWords || len(pairs) != 2*cfg.PairWords {
			return fmt.Errorf("device holds %d/%d words but engine %s with these sizing flags needs %d/%d (check -engine/-heap/-max-threads/-max-stores)",
				len(raw), len(pairs)/2, def.Name, cfg.RawWords, cfg.PairWords)
		}
		// The copies ReadImage made are the inspection device's image.
		if dev, err = pmem.NewOver(cfg, raw, pairs, nil, false); err != nil {
			return err
		}
	} else {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		if dev, err = pmem.New(cfg); err != nil {
			return err
		}
		if _, err := dev.ReadFrom(f); err != nil {
			return fmt.Errorf("load snapshot (check the sizing flags): %w", err)
		}
		fmt.Fprintf(out, "snapshot:      %s\n", path)
	}

	e, err := def.New(dev, true, opts...)
	if err != nil {
		return fmt.Errorf("attach %s: %w", def.Name, err)
	}

	fmt.Fprintf(out, "engine:        %s\n", def.Name)
	fmt.Fprintf(out, "heap:          %d words (%d KiB of TM data)\n", o.heapWords, o.heapWords*8/1024)
	fmt.Fprintf(out, "thread slots:  %d, write-set capacity %d stores\n", o.maxThreads, o.maxStores)

	var alloc, free uint64
	auditOK, canAudit := false, false
	liveRoots := 0
	e.Read(func(tx tm.Tx) uint64 {
		if db, ok := e.(interface{ DynBase() tm.Ptr }); ok {
			canAudit = true
			alloc, free, auditOK = talloc.Audit(tx, db.DynBase())
		}
		if o.showRoots {
			fmt.Fprintln(out, "roots:")
			for i := 0; i < tm.NumRoots; i++ {
				if v := tx.Load(tm.Root(i)); v != 0 {
					liveRoots++
					fmt.Fprintf(out, "  slot %2d = %d\n", i, v)
				}
			}
		}
		return 0
	})
	fmt.Fprintf(out, "live roots:    %d of %d\n", liveRoots, tm.NumRoots)
	if canAudit {
		fmt.Fprintf(out, "allocator:     %d words allocated, %d words on free lists\n", alloc, free)
		if !auditOK {
			return fmt.Errorf("allocator audit FAILED: heap does not tile into valid blocks")
		}
		fmt.Fprintln(out, "audit:         OK (heap tiles exactly; no leaks, no corruption)")
	} else {
		fmt.Fprintln(out, "audit:         skipped (engine does not expose its allocator)")
	}
	s := e.Stats()
	fmt.Fprintf(out, "recovery:      null recovery complete (helps=%d)\n", s.Helps)
	if r, ok := e.(interface{ LastRecovery() core.RecoveryReport }); ok {
		rep := r.LastRecovery()
		fmt.Fprintf(out, "  attach:      %v; %d heap words walked in %d range(s) in %v, %d non-zero; %d never written, zeroed unread\n",
			rep.Duration, rep.HeapWords-rep.WordsZeroed, rep.Ranges, rep.Walk, rep.WordsLoaded, rep.WordsZeroed)
		if rep.Pending {
			fmt.Fprintf(out, "  pending:     transaction %d re-applied from its redo log in %v (%d stale log entries skipped)\n",
				rep.PendingSeq, rep.NullRecovery, rep.StaleLogEntriesSkipped)
		} else {
			fmt.Fprintln(out, "  pending:     none (curTx's request was durably closed)")
		}
	}
	fmt.Fprintf(out, "image memory:  pair %s; raw %s\n",
		heldLine(dev.ImageMemory(pmem.PairImage)), heldLine(dev.ImageMemory(pmem.RawImage)))
	return nil
}

// heldLine says what one image holds in memory against what is configured:
// the simulator allocates a unit of it at the first write that reaches it, a
// device file's image is all there from the start.
func heldLine(m pmem.ImageMem) string {
	return fmt.Sprintf("%d of %d bytes held, %d of %d units", m.Bytes, m.BytesMax, m.Units, m.UnitsMax)
}
