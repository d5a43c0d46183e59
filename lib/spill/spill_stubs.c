/* C stubs of the spill layer: positioned file I/O and the store
   table's key hash (at the end).

   Positioned I/O for spill files: pread(2)/pwrite(2) at an offset, one
   system call per transfer and no shared file position, so a record
   read, a tail write or a compaction chunk costs no lseek.  A call
   interrupted by a signal is retried; any other failure raises
   Unix.Unix_error.  A short transfer is returned as is: the OCaml side
   (Fw_spill.File) loops, and turns a read of 0 bytes into a fault.

   The runtime lock is kept across the call.  The transfer goes straight
   between the kernel and the OCaml buffer, which may move while the
   lock is released; releasing it would need a bounce buffer and a copy
   per transfer, which is the cost Unix.read pays.  A spill transfer is
   at most a few KiB of a scratch file usually in the page cache, about
   a microsecond, and a pool is single-writer (one per engine domain),
   so no thread of the domain waits for the lock meanwhile. */

#define _FILE_OFFSET_BITS 64
#include <errno.h>
#include <stdint.h>
#include <sys/types.h>
#include <unistd.h>
#include <caml/hash.h>
#include <caml/mlvalues.h>
#include <caml/unixsupport.h>

value fw_spill_pread(value fd, value off, value buf, value pos, value len)
{
  ssize_t n;
  do
    n = pread(Int_val(fd), Bytes_val(buf) + Long_val(pos), Long_val(len),
              (off_t)Long_val(off));
  while (n < 0 && errno == EINTR);
  if (n < 0) caml_uerror("pread", Nothing);
  return Val_long(n);
}

value fw_spill_pwrite(value fd, value off, value buf, value pos, value len)
{
  ssize_t n;
  do
    n = pwrite(Int_val(fd), Bytes_val(buf) + Long_val(pos), Long_val(len),
               (off_t)Long_val(off));
  while (n < 0 && errno == EINTR);
  if (n < 0) caml_uerror("pwrite", Nothing);
  return Val_long(n);
}

/* The store table's key hash: exactly [Hashtbl.hash] of a string, the
   runtime's generic caml_hash (seed 0) reduced to its string case.  It
   mixes the string with caml_hash_mix_string, applies caml_hash's final
   mix and folds the result to 30 bits, so the table's bucket indexes,
   and with them its visit order, are a generic Hashtbl's.  Only the
   generic hash's traversal is skipped: its work queue, tag dispatch and
   size limits. */
value fw_spill_hash(value s)
{
  uint32_t h = caml_hash_mix_string(0, s);
  h ^= h >> 16;
  h *= 0x85ebca6bU;
  h ^= h >> 13;
  h *= 0xc2b2ae35U;
  h ^= h >> 16;
  return Val_long(h & 0x3FFFFFFFU);
}
