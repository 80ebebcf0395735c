// Command clizbench regenerates the paper's tables and figures
// (DESIGN.md's per-experiment index E01–E11).
//
//	clizbench -list                   # show available experiments
//	clizbench -run E01 -scale 0.25    # one experiment
//	clizbench -all -out results/      # everything, with CSVs and artifacts
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"cliz/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "clizbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("clizbench", flag.ContinueOnError)
	var (
		list  = fs.Bool("list", false, "list experiments")
		id    = fs.String("run", "", "experiment id to run (e.g. E01)")
		all   = fs.Bool("all", false, "run every experiment")
		scale = fs.Float64("scale", 0, "dataset scale (1.0 = paper dimensions; default 0.25)")
		out   = fs.String("out", "", "directory for CSVs and artifacts (optional)")
		quiet = fs.Bool("quiet", false, "suppress progress logging")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, e := range experiments.List() {
			fmt.Printf("%s  %s\n", e[0], e[1])
		}
		return nil
	}
	env := experiments.DefaultEnv()
	if *scale > 0 {
		env.Scale = *scale
	}
	if *out != "" {
		env.OutDir = *out
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
	}
	if !*quiet {
		env.Log = os.Stderr
	}
	var tables []experiments.Table
	var err error
	switch {
	case *all:
		tables, err = experiments.RunAll(env)
	case *id != "":
		tables, err = experiments.Run(*id, env)
	default:
		return fmt.Errorf("one of -list, -run <id>, -all is required")
	}
	if err != nil {
		return err
	}
	for i := range tables {
		tables[i].Render(os.Stdout)
		if *out != "" {
			name := fmt.Sprintf("%s_%02d_%s.csv", tables[i].ID, i,
				sanitize(tables[i].Title))
			f, err := os.Create(filepath.Join(*out, name))
			if err != nil {
				return err
			}
			tables[i].CSV(f)
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}

func sanitize(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			b.WriteRune(r)
		case r == ' ' || r == '-' || r == '_':
			b.WriteByte('_')
		}
		if b.Len() >= 48 {
			break
		}
	}
	return b.String()
}
