// Command zigbench regenerates the paper's figures and use cases plus the
// extension experiments, printing each as an aligned table. The
// internal/experiments package doc indexes the ids with the paper claim
// each reproduces.
//
//	zigbench -exp all
//	zigbench -exp f1,f4,x3 -seed 42
//	zigbench -list
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
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "zigbench:", err)
		os.Exit(1)
	}
}

func run() error {
	exp := flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
	seed := flag.Uint64("seed", 42, "workload seed")
	list := flag.Bool("list", false, "list experiment ids and exit")
	parallel := flag.Int("parallelism", 0, "engine worker count (0 = all CPUs, 1 = sequential)")
	flag.Parse()
	experiments.SetParallelism(*parallel)

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return nil
	}

	var ids []string
	if *exp == "all" {
		ids = experiments.IDs()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			if id = strings.TrimSpace(id); id != "" {
				ids = append(ids, id)
			}
		}
	}
	if len(ids) == 0 {
		return fmt.Errorf("no experiments selected")
	}

	for _, id := range ids {
		start := time.Now()
		tbl, err := experiments.ByID(id, *seed)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
		fmt.Print(tbl.String())
		fmt.Printf("(%s in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
