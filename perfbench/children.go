package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// measureProcs is how many processes an untraced run measures in, one
// after another, each for an equal share of its seconds; every metric is
// the median over them. On the 2-core hosts the benchmark was sized on,
// instrumented op costs settle at a level that differs by up to 10% from
// one process to the next, so a single process's figure swings more than
// a median of several does.
const measureProcs = 8

// childResult is what one measuring process reports to its parent, as
// the last line of its standard output.
type childResult struct {
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Errors    []string           `json:"errors"`
	Metrics   map[string]float64 `json:"metrics"`
	Meta      map[string]any     `json:"meta"`
}

func printChild(res *result, stdout io.Writer) error {
	c := childResult{Attempted: res.attempted, Failed: res.failed, Metrics: res.metrics, Meta: res.meta}
	for _, err := range res.errs {
		c.Errors = append(c.Errors, err.Error())
	}
	return json.NewEncoder(stdout).Encode(c)
}

// runChildren measures workload in measureProcs child processes of this
// executable, one after another, and folds their results: counts add up,
// and each metric is the median over the children.
func runChildren(workload string, cfg config, stderr io.Writer) *result {
	res := newResult()
	exe, err := os.Executable()
	if err != nil {
		res.fail(1, fmt.Errorf("locating the benchmark executable: %w", err))
		return res
	}
	share := cfg.budget / measureProcs
	per := map[string][]float64{}
	var metas []map[string]any
	for i := 0; i < measureProcs; i++ {
		args := []string{"--workload", workload, "--seed", strconv.FormatInt(cfg.seed, 10), "--child-ms", strconv.FormatInt(share.Milliseconds(), 10)}
		c, err := runChild(exe, args, stderr)
		if err != nil {
			res.fail(1, fmt.Errorf("measuring process %d: %w", i, err))
			continue
		}
		res.attempted += c.Attempted
		res.failed += c.Failed
		for _, e := range c.Errors {
			res.errs = append(res.errs, errors.New(e))
		}
		for name, v := range c.Metrics {
			per[name] = append(per[name], v)
		}
		metas = append(metas, c.Meta)
	}
	for name, vs := range per {
		res.metrics[name] = median(vs)
	}
	res.meta["processes"] = metas
	return res
}

// runChild runs one measuring process to completion and parses its result.
func runChild(exe string, args []string, stderr io.Writer) (*childResult, error) {
	var out bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = &out
	cmd.Stderr = stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var c childResult
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &c); jerr != nil {
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("parsing its result: %w", jerr)
	}
	return &c, nil
}
