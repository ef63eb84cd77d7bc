package main

import (
	"fmt"
	"runtime"
	"syscall"
)

// env records where a result file was measured, so two files are only
// compared knowingly across hosts.
type env struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Seed       int64  `json:"seed"`
	Drivers    int    `json:"drivers"`
	Transport  string `json:"transport"`
	// WALFilesystem is the filesystem the journals sit on. fsync on tmpfs is
	// a no-op, so the journal metrics measured there say nothing about a
	// disk; WALFsyncNoop flags it.
	WALFilesystem string `json:"wal_filesystem"`
	WALFsyncNoop  bool   `json:"wal_fsync_noop"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Env     env       `json:"env"`
	Results []*report `json:"results"`
}

func environment(seed int64, drivers int, walDir string) env {
	fs := filesystem(walDir)
	return env{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Seed: seed, Drivers: drivers, Transport: "loopback, in-process servers",
		WALFilesystem: fs, WALFsyncNoop: fs == "tmpfs" || fs == "ramfs",
	}
}

// filesystem names the filesystem holding dir from its statfs magic number.
func filesystem(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0x01021994: "tmpfs", 0x858458f6: "ramfs", 0xef53: "ext4", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683e: "btrfs", 0x6969: "nfs", 0x2fc12fc1: "zfs",
	}
	if name, ok := names[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}
