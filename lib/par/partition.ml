(* 32-bit FNV-1a; OCaml's native int is at least 63 bits, so the masked
   multiply never overflows into the sign bit *)
let fnv_offset = 0x811c9dc5

let fnv_prime = 0x01000193

let mask32 = 0xFFFFFFFF

(* top-level recursion: no closure per hashed string *)
let rec fnv1a s i h =
  if i = String.length s then h
  else
    fnv1a s (i + 1)
      ((h lxor Char.code (String.unsafe_get s i)) * fnv_prime land mask32)

let hash_string s = fnv1a s 0 fnv_offset

let shard_of_string ~shards s =
  if shards < 1 then invalid_arg "Partition.shard_of_string: shards < 1";
  hash_string s mod shards
