package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"ixplens/internal/capture"
	"ixplens/internal/serve"
	"ixplens/internal/snapshot"
)

// The serve workloads run over a finished campaign (the fixture) plus
// the expected body of every distinct request, rendered directly from
// the campaign's snapshots. Building it is a full cold campaign, so it
// is built once per benchmark binary and world seed under
// .bench_build/fixture/ and reused; a child process builds it, so its
// memory does not count towards the serving process's peak RSS.

const readyMarker = "READY"

// catalog lists every distinct request the workloads send, week by
// week, then /churn.
func catalog(weeks []int) []request {
	var out []request
	for _, wk := range weeks {
		for kind := weekKind; kind < churnKind; kind++ {
			out = append(out, request{kind, wk})
		}
	}
	return append(out, request{kind: churnKind})
}

// expectedName is the file under expected/ holding a path's body.
func expectedName(path string) string {
	return strings.ReplaceAll(strings.TrimPrefix(path, "/"), "/", "_") + ".json"
}

// fixture returns the campaign directory and the expected bodies for
// worldSeed, building them first if needed.
func fixture(ctx context.Context, root string, worldSeed int64) (string, map[string][]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", nil, err
	}
	sum, err := fileHash(exe)
	if err != nil {
		return "", nil, err
	}
	base := filepath.Join(root, ".bench_build", "fixture")
	build := sum[:16]
	dir := filepath.Join(base, fmt.Sprintf("%s-w%d", build, worldSeed))
	if _, err := os.Stat(filepath.Join(dir, readyMarker)); err != nil {
		// Fixtures of other builds are stale; drop them with any partial
		// build of this one.
		entries, _ := os.ReadDir(base)
		for _, e := range entries {
			if !strings.HasPrefix(e.Name(), build+"-") {
				if err := os.RemoveAll(filepath.Join(base, e.Name())); err != nil {
					return "", nil, err
				}
			}
		}
		if err := os.RemoveAll(dir); err != nil {
			return "", nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: building serve fixture (world seed %d)\n", worldSeed)
		cmd := exec.CommandContext(ctx, exe, "-build-fixture", dir, "-world-seed", strconv.FormatInt(worldSeed, 10))
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return "", nil, fmt.Errorf("building fixture: %w", err)
		}
	}
	man, err := capture.ReadManifest(filepath.Join(dir, "campaign"))
	if err != nil {
		return "", nil, err
	}
	expected := make(map[string][]byte)
	for _, q := range catalog(man.Weeks) {
		body, err := os.ReadFile(filepath.Join(dir, "expected", expectedName(q.path())))
		if err != nil {
			return "", nil, err
		}
		expected[q.path()] = body
	}
	return filepath.Join(dir, "campaign"), expected, nil
}

func fileHash(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// buildFixture runs the cold supervised campaign for worldSeed into
// dir/campaign and renders every distinct request's expected body into
// dir/expected, the way ixpserve's handlers render them.
func buildFixture(ctx context.Context, dir string, worldSeed int64) error {
	campaign := filepath.Join(dir, "campaign")
	env, _, err := newEnv(worldSeed)
	if err != nil {
		return err
	}
	run, err := supervised(ctx, env, campaign, nil, nil)
	if err != nil {
		return err
	}
	if run.rep.Completed != len(run.rep.Weeks) || run.rep.Quarantined != 0 {
		return fmt.Errorf("fixture campaign: %d of %d weeks done, %d quarantined",
			run.rep.Completed, len(run.rep.Weeks), run.rep.Quarantined)
	}
	man, err := capture.ReadManifest(campaign)
	if err != nil {
		return err
	}
	// A fresh environment, as a restarted server would rebuild it.
	renv, err := man.Rebuild()
	if err != nil {
		return err
	}
	const k = 10 // serve.Config's default TopK
	bodies := make(map[string]interface{})
	snaps := make([]*snapshot.Snapshot, len(man.Weeks))
	for i, wk := range man.Weeks {
		snap, err := snapshot.LoadFile(filepath.Join(campaign, snapshot.FileName(wk)))
		if err != nil {
			return err
		}
		snaps[i] = snap
		vis, err := serve.VisibilityView(renv, snap, k)
		if err != nil {
			return err
		}
		links, err := serve.TopLinks(snap, k)
		if err != nil {
			return err
		}
		bodies[request{weekKind, wk}.path()] = serve.Summarize(snap)
		bodies[request{serversKind, wk}.path()] = serve.TopServers(snap, k)
		bodies[request{asesKind, wk}.path()] = serve.TopASes(renv, snap, k)
		bodies[request{visibilityKind, wk}.path()] = vis
		bodies[request{linksKind, wk}.path()] = links
	}
	series, err := serve.ChurnSeries(renv, man.Weeks, snaps)
	if err != nil {
		return err
	}
	bodies[request{kind: churnKind}.path()] = series
	exp := filepath.Join(dir, "expected")
	if err := os.MkdirAll(exp, 0o755); err != nil {
		return err
	}
	for _, q := range catalog(man.Weeks) {
		buf, err := json.Marshal(bodies[q.path()])
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(exp, expectedName(q.path())), append(buf, '\n'), 0o644); err != nil {
			return err
		}
	}
	return os.WriteFile(filepath.Join(dir, readyMarker), nil, 0o644)
}
