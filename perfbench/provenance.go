package main

import (
	"bytes"
	"crypto/sha1"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// provenance describes what was measured and where: the git tree SHA of
// the working directory's files (computed from the files themselves, so
// it also works in a checkout that is not a git repository), the HEAD
// commit and a dirty flag when git can tell ("git" says whether it
// could), the core count, GOMAXPROCS and the Go version.
func provenance() map[string]any {
	p := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
	}
	tree, err := treeSHA(".")
	if err != nil {
		p["tree_error"] = err.Error()
	} else {
		p["tree"] = tree
	}
	// HEAD's tree equals the measured tree exactly when nothing under
	// version control differs from the commit.
	p["git"] = false
	if out, err := exec.Command("git", "rev-parse", "HEAD", "HEAD^{tree}").Output(); err == nil {
		f := strings.Fields(string(out))
		if len(f) == 2 {
			p["git"] = true
			p["head"] = f[0]
			p["dirty"] = tree != f[1]
		}
	}
	return p
}

// skipInTree names the directories treeSHA leaves out: git's own, and the
// benchmark's build output.
var skipInTree = map[string]bool{".git": true, ".bench_build": true}

// treeSHA returns the SHA-1 git would give a tree holding the regular
// files under dir: blobs hashed as "blob <len>\0<data>", entries sorted by
// name (directories as name + "/"), modes 100644, 100755 and 40000.
// Empty directories are omitted, as git omits them.
func treeSHA(dir string) (string, error) {
	sum, empty, err := hashTree(dir)
	if err != nil {
		return "", err
	}
	if empty {
		return "", fmt.Errorf("no files under %s", dir)
	}
	return hex.EncodeToString(sum), nil
}

func hashTree(dir string) (sum []byte, empty bool, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, false, err
	}
	type entry struct {
		key, mode, name string
		sum             []byte
	}
	var list []entry
	for _, e := range ents {
		path := filepath.Join(dir, e.Name())
		switch {
		case e.IsDir():
			if skipInTree[e.Name()] {
				continue
			}
			s, empty, err := hashTree(path)
			if err != nil {
				return nil, false, err
			}
			if !empty {
				list = append(list, entry{e.Name() + "/", "40000", e.Name(), s})
			}
		case e.Type().IsRegular():
			info, err := e.Info()
			if err != nil {
				return nil, false, err
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return nil, false, err
			}
			mode := "100644"
			if info.Mode()&0o111 != 0 {
				mode = "100755"
			}
			list = append(list, entry{e.Name(), mode, e.Name(), gitHash("blob", data)})
		}
	}
	sort.Slice(list, func(i, j int) bool { return list[i].key < list[j].key })
	var buf bytes.Buffer
	for _, e := range list {
		fmt.Fprintf(&buf, "%s %s\x00", e.mode, e.name)
		buf.Write(e.sum)
	}
	return gitHash("tree", buf.Bytes()), len(list) == 0, nil
}

func gitHash(kind string, data []byte) []byte {
	h := sha1.New()
	fmt.Fprintf(h, "%s %d\x00", kind, len(data))
	h.Write(data)
	return h.Sum(nil)
}
