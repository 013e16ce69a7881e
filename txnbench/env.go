package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"time"
)

// calibrateFsync times small write+fsync pairs on a file in dir and
// returns the median in milliseconds, so device noise can be told apart
// from changes to the program.
func calibrateFsync(dir string) (float64, error) {
	const rounds = 40
	f, err := os.Create(filepath.Join(dir, "fsync-calibration"))
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	page := make([]byte, 4096)
	times := make([]time.Duration, 0, rounds)
	for i := 0; i < rounds; i++ {
		page[0] = byte(i)
		t0 := time.Now()
		if _, err := f.WriteAt(page, int64(i)*int64(len(page))); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(t0))
	}
	slices.Sort(times)
	return ms(percentile(times, 50)), nil
}

// filesystem names the file system holding dir, from its statfs magic
// number.
func filesystem(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown (" + err.Error() + ")"
	}
	switch uint64(st.Type) {
	case 0xef53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	}
	return fmt.Sprintf("magic %#x", uint64(st.Type))
}
