// Package objstore implements a minimal object storage service (the Swift
// analogue) layered on a StorM-attached volume, demonstrating the paper's
// claim that "while its current design is tailored for block storage, StorM
// is equally applicable to other storage systems such as object storage":
// because the gateway performs all I/O through the volume's block device,
// every object operation transparently traverses whatever middle-box chain
// the tenant's policy wired — monitoring, encryption, replication.
//
// Buckets map to directories and objects to files of the ext-style file
// system; object keys are escaped so arbitrary names (including '/') are
// safe. ETags are SHA-256 over the content, verified on every read.
package objstore

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/url"
	"sort"
	"strings"

	"repro/internal/extfs"
)

// Errors.
var (
	ErrNoBucket     = errors.New("objstore: bucket does not exist")
	ErrNoObject     = errors.New("objstore: object does not exist")
	ErrBucketExists = errors.New("objstore: bucket already exists")
	ErrCorrupt      = errors.New("objstore: content does not match its etag")
	ErrBadName      = errors.New("objstore: invalid bucket or object name")
)

// ObjectInfo describes one stored object.
type ObjectInfo struct {
	Key  string
	Size uint64
	ETag string
}

// Store is an object store over a mounted file system.
type Store struct {
	fs *extfs.FS
}

// root is the store's directory on the volume.
const root = "/objects"

// New initializes (or reopens) an object store on fs.
func New(fs *extfs.FS) (*Store, error) {
	if err := fs.MkdirAll(root); err != nil && err != extfs.ErrExists {
		return nil, err
	}
	return &Store{fs: fs}, nil
}

// bucketPath validates and resolves a bucket name.
func bucketPath(bucket string) (string, error) {
	if bucket == "" || strings.ContainsAny(bucket, "/\x00") {
		return "", fmt.Errorf("%w: bucket %q", ErrBadName, bucket)
	}
	return root + "/" + bucket, nil
}

// objectPath escapes an object key into a file name.
func objectPath(bucket, key string) (string, error) {
	bp, err := bucketPath(bucket)
	if err != nil {
		return "", err
	}
	if key == "" {
		return "", fmt.Errorf("%w: empty key", ErrBadName)
	}
	return bp + "/" + url.PathEscape(key), nil
}

// CreateBucket makes a new bucket.
func (s *Store) CreateBucket(bucket string) error {
	bp, err := bucketPath(bucket)
	if err != nil {
		return err
	}
	if err := s.fs.Mkdir(bp); err == extfs.ErrExists {
		return fmt.Errorf("%w: %s", ErrBucketExists, bucket)
	} else if err != nil {
		return err
	}
	return nil
}

// Put stores an object, returning its ETag.
func (s *Store) Put(bucket, key string, data []byte) (string, error) {
	op, err := objectPath(bucket, key)
	if err != nil {
		return "", err
	}
	if ok := s.bucketExists(bucket); !ok {
		return "", fmt.Errorf("%w: %s", ErrNoBucket, bucket)
	}
	sum := sha256.Sum256(data)
	etag := hex.EncodeToString(sum[:])
	// Layout: 64-byte hex etag header, then the content.
	buf := make([]byte, 64+len(data))
	copy(buf, etag)
	copy(buf[64:], data)
	if err := s.fs.WriteFile(op, buf); err != nil {
		return "", err
	}
	return etag, nil
}

// Get retrieves an object and verifies its ETag.
func (s *Store) Get(bucket, key string) ([]byte, string, error) {
	op, err := objectPath(bucket, key)
	if err != nil {
		return nil, "", err
	}
	raw, err := s.fs.ReadFile(op)
	if err == extfs.ErrNotFound {
		return nil, "", s.missing(bucket, key)
	} else if err != nil {
		return nil, "", err
	}
	if len(raw) < 64 {
		return nil, "", ErrCorrupt
	}
	etag := string(raw[:64])
	data := raw[64:]
	sum := sha256.Sum256(data)
	if hex.EncodeToString(sum[:]) != etag {
		return nil, "", fmt.Errorf("%w: %s/%s", ErrCorrupt, bucket, key)
	}
	return data, etag, nil
}

// Head returns an object's metadata without its content.
func (s *Store) Head(bucket, key string) (ObjectInfo, error) {
	op, err := objectPath(bucket, key)
	if err != nil {
		return ObjectInfo{}, err
	}
	fi, err := s.fs.Stat(op)
	if err == extfs.ErrNotFound {
		return ObjectInfo{}, s.missing(bucket, key)
	} else if err != nil {
		return ObjectInfo{}, err
	}
	etagBuf := make([]byte, 64)
	if err := s.fs.ReadAt(op, etagBuf, 0); err != nil {
		return ObjectInfo{}, err
	}
	size := uint64(0)
	if fi.Size >= 64 {
		size = fi.Size - 64
	}
	return ObjectInfo{Key: key, Size: size, ETag: string(etagBuf)}, nil
}

// List returns the bucket's objects with the given key prefix, sorted.
func (s *Store) List(bucket, prefix string) ([]ObjectInfo, error) {
	bp, err := bucketPath(bucket)
	if err != nil {
		return nil, err
	}
	ents, err := s.fs.ReadDir(bp)
	if err == extfs.ErrNotFound {
		return nil, fmt.Errorf("%w: %s", ErrNoBucket, bucket)
	} else if err != nil {
		return nil, err
	}
	var out []ObjectInfo
	for _, e := range ents {
		key, err := url.PathUnescape(e.Name)
		if err != nil || !strings.HasPrefix(key, prefix) {
			continue
		}
		info, err := s.Head(bucket, key)
		if err != nil {
			return nil, err
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

func (s *Store) bucketExists(bucket string) bool {
	bp, err := bucketPath(bucket)
	if err != nil {
		return false
	}
	return s.fs.Exists(bp)
}

func (s *Store) missing(bucket, key string) error {
	if !s.bucketExists(bucket) {
		return fmt.Errorf("%w: %s", ErrNoBucket, bucket)
	}
	return fmt.Errorf("%w: %s/%s", ErrNoObject, bucket, key)
}
