// Command fwbench regenerates the paper's tables and figures on the
// simulated stack.
//
// Usage:
//
//	fwbench -list
//	fwbench -run fig6          # one experiment
//	fwbench -run all           # everything, in paper order
//	fwbench -run fig6,fig7     # a comma-separated subset
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list available experiments")
	run := flag.String("run", "all", "experiment id(s) to run: all, or comma-separated ids")
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	var selected []experiments.Experiment
	if *run == "all" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*run, ",") {
			e, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	failed := 0
	for _, e := range selected {
		fmt.Printf("### %s — %s\n\n", e.ID, e.Title)
		start := time.Now()
		res, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			failed++
			continue
		}
		fmt.Print(res.Render())
		fmt.Printf("(%s wall time)\n\n", time.Since(start).Round(time.Millisecond))
	}
	if failed > 0 {
		os.Exit(1)
	}
}
