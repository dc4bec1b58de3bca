// Command bugnet-inspect prints the contents of a crash report: per-
// interval First-Load Log headers and encoded sizes, Memory Race Log
// summaries, the recording log-region occupancy and eviction stats, and
// aggregate sizes — the developer's first look at what came back from the
// field.
//
// Usage:
//
//	bugnet-inspect -archive report.bnar
//	bugnet-inspect -archive report.bnar -sections
//
// Inspection is streaming: sections are CRC-validated and their metadata
// decoded, but no entry stream is materialized unless -entries asks for a
// record dump.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"bugnet"
	"bugnet/internal/cpu"
	"bugnet/internal/logstore"
	"bugnet/internal/report"
)

func main() {
	archive := flag.String("archive", "bugnet-report.bnar", "crash report archive file")
	entries := flag.Int("entries", 0, "also dump up to N raw first-load records per log")
	sections := flag.Bool("sections", false, "list raw sections and encoded sizes")
	flag.Parse()

	a, err := report.OpenFile(*archive)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer a.Close()
	if *sections {
		printSections(a)
	}
	printReport(a.Report(), *entries)
}

// printSections lists the archive's raw section index.
func printSections(a *report.Archive) {
	fmt.Println("archive sections:")
	fmt.Printf("  %-4s %-6s %-6s %-10s %s\n", "#", "kind", "tid", "cid", "encoded bytes")
	for i, s := range a.Sections() {
		tid := "-"
		if s.TID >= 0 {
			tid = fmt.Sprintf("%d", s.TID)
		}
		fmt.Printf("  %-4d %-6c %-6s %-10d %d\n", i, s.Kind, tid, s.CID, s.Len)
	}
	fmt.Println()
}

// printStats renders one log region's occupancy and eviction counters.
func printStats(name string, st logstore.Stats) {
	if st == (logstore.Stats{}) {
		return
	}
	fmt.Printf("%s region: %d logs / %.1f KB retained (%.1f KB encoded); evicted %d logs / %.1f KB; lifetime %d logs / %.1f KB\n",
		name, st.RetainedCount, kb(st.RetainedBytes), kb(st.RetainedEncodedBytes),
		st.EvictedCount, kb(st.EvictedBytes), st.TotalCount, kb(st.TotalBytes))
}

func kb(b int64) float64 { return float64(b) / 1024 }

func printReport(rep *bugnet.CrashReport, entries int) {
	fmt.Printf("crash report (pid %d)\n", rep.PID)
	if rep.Crash != nil {
		fmt.Printf("crash: thread %d, %s at pc=%#x addr=%#x\n",
			rep.Crash.TID, rep.Crash.Fault.Cause, rep.Crash.Fault.PC, rep.Crash.Fault.Addr)
	} else {
		fmt.Println("no crash recorded (window capture)")
	}
	printStats("FLL", rep.FLLStats)
	printStats("MRL", rep.MRLStats)

	tids := make([]int, 0, len(rep.FLLs))
	for tid := range rep.FLLs {
		tids = append(tids, tid)
	}
	sort.Ints(tids)

	var totalBytes, totalEncoded int64
	var totalInstr uint64
	for _, tid := range tids {
		fmt.Printf("\nthread %d: %d first-load logs\n", tid, len(rep.FLLs[tid]))
		fmt.Printf("  %-5s %-12s %-12s %-10s %-10s %-9s %-9s %-16s %s\n",
			"C-ID", "timestamp", "instructions", "mem ops", "logged", "KB", "enc KB", "end", "fault")
		for _, l := range rep.FLLs[tid] {
			faultStr := ""
			if l.Fault != nil {
				faultStr = fmt.Sprintf("%s at %#x (interval ic %d)",
					cpu.FaultCause(l.Fault.Cause), l.Fault.PC, l.Fault.IC)
			}
			// The encoded size is view metadata — no log bytes move.
			encoded := l.EncodedLen()
			fmt.Printf("  %-5d %-12d %-12d %-10d %-10d %-9.1f %-9.1f %-16s %s\n",
				l.CID, l.Timestamp, l.Length, l.Ops, l.NumEntries,
				kb(l.SizeBytes()), kb(encoded), l.End, faultStr)
			totalBytes += l.SizeBytes()
			totalEncoded += encoded
			totalInstr += l.Length
			if entries > 0 {
				log, err := l.Open()
				if err != nil {
					fmt.Printf("      entry dump error: %v\n", err)
					continue
				}
				es, err := log.DumpEntries(entries)
				if err != nil {
					fmt.Printf("      entry dump error: %v\n", err)
				}
				for _, e := range es {
					fmt.Printf("      %s\n", e)
				}
			}
		}
		if mrls := rep.MRLs[tid]; len(mrls) > 0 {
			raceEntries := 0
			var bytes, encBytes int64
			for _, m := range mrls {
				raceEntries += int(m.NumEntries)
				bytes += m.SizeBytes()
				encBytes += m.EncodedLen()
			}
			fmt.Printf("  memory race logs: %d logs, %d entries, %.1f KB (%.1f KB encoded)\n",
				len(mrls), raceEntries, kb(bytes), kb(encBytes))
			totalBytes += bytes
			totalEncoded += encBytes
		}
	}
	fmt.Printf("\nreplay window: %d instructions in %.1f KB of logs (%.1f KB encoded on the wire)\n",
		totalInstr, kb(totalBytes), kb(totalEncoded))
}
