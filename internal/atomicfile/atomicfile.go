// Package atomicfile writes files so that a crash at any instant leaves
// either the old contents or the new contents on disk, never a torn
// mixture and never nothing. It is the persistence primitive under every
// piece of durable scanner state: scan-cycle cursor files and the
// coordinator's campaign store.
//
// The sequence is the classic one: write the full payload to a temporary
// file in the destination directory, fsync the file, rename it over the
// destination, and fsync the directory so the rename itself is durable.
// Rename within one directory is atomic on POSIX filesystems, so readers
// (and crash recovery) only ever observe a complete file.
package atomicfile

import (
	"fmt"
	"os"
	"path/filepath"
)

// testHookAfterWrite, when non-nil, runs after the temporary file is
// written and synced but before the rename — the crash window fault
// injection targets. Returning an error aborts the save (the temporary
// file is removed, the destination untouched).
var testHookAfterWrite func() error

// WriteFile atomically replaces path with data. On any error the
// previous contents of path are intact.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	return WriteParts(path, perm, data)
}

// WriteParts is WriteFile for contents given as consecutive parts (a
// header and a payload, say), written without first being copied into
// one buffer.
func WriteParts(path string, perm os.FileMode, parts ...[]byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("atomicfile: %w", err)
	}
	tmpName := tmp.Name()
	// Any failure from here on must not leave the temp file behind.
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("atomicfile: %w", err)
	}
	for _, p := range parts {
		if _, err := tmp.Write(p); err != nil {
			return fail(err)
		}
	}
	if err := tmp.Chmod(perm); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("atomicfile: %w", err)
	}
	if testHookAfterWrite != nil {
		if err := testHookAfterWrite(); err != nil {
			os.Remove(tmpName)
			return fmt.Errorf("atomicfile: %w", err)
		}
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("atomicfile: %w", err)
	}
	return syncDir(dir)
}

// syncDir makes a completed rename durable. Some filesystems do not
// support fsync on directories; those errors are ignored — the rename is
// still atomic, only its durability window widens.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	_ = d.Sync()
	return nil
}
