// Command experiments runs every reproduced figure and experiment and
// prints their tables and heat maps.
//
// Usage:
//
//	experiments [-quick] [-only fig1|fig2|e3|e4|e5|e6|e7|a1|a2]
//	experiments -addr http://localhost:8080 [-quick]
//
// With -addr the standard sweep matrix runs against a running
// thermflowd server instead of an in-process engine, so concurrent or
// repeated runs — even from different processes — share its jobs and
// result cache. -addr URL -reset-cache clears that cache
// (DELETE /v2/cache) and exits.
package main

import (
	"flag"
	"fmt"
	"os"

	"thermflow/internal/experiments"
)

func main() {
	quick := flag.Bool("quick", false, "reduced sweeps")
	only := flag.String("only", "", "run a single experiment (fig1, fig2, e3, e4, e5, e6, e7, e8, a1, a2)")
	workers := flag.Int("workers", 0, "batch compile worker-pool size for in-process runs (0 = GOMAXPROCS; the server's pool is set by thermflowd -workers)")
	addr := flag.String("addr", "", "run the sweep against a thermflowd server at this base URL instead of in-process (supports -quick; not -only)")
	resetCache := flag.Bool("reset-cache", false, "with -addr: reset the server's result cache and exit")
	flag.Parse()

	cfg := experiments.Config{Out: os.Stdout, Quick: *quick, Workers: *workers}
	if *addr != "" {
		if *only != "" {
			fmt.Fprintln(os.Stderr, "experiments: -only selects in-process figure drivers and cannot be combined with -addr (the remote mode runs the fixed sweep matrix)")
			os.Exit(2)
		}
		var err error
		if *resetCache {
			err = experiments.RemoteResetCache(*addr)
		} else {
			_, err = experiments.Remote(cfg, *addr)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		return
	}
	var err error
	switch *only {
	case "":
		err = experiments.All(cfg)
	case "fig1":
		_, err = experiments.Fig1(cfg)
	case "fig2":
		_, err = experiments.Fig2(cfg)
	case "e3":
		_, err = experiments.E3(cfg)
	case "e4":
		_, err = experiments.E4(cfg)
	case "e5":
		_, err = experiments.E5(cfg)
	case "e6":
		_, err = experiments.E6(cfg)
	case "e7":
		_, err = experiments.E7(cfg)
	case "e8":
		_, err = experiments.E8(cfg)
	case "e9":
		_, err = experiments.E9(cfg)
	case "e10":
		_, err = experiments.E10(cfg)
	case "a1":
		_, err = experiments.A1(cfg)
	case "a2":
		_, err = experiments.A2(cfg)
	default:
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *only)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
