(* Interposed memory-intrinsic and string functions (paper §IV-D, §V-B).

   Each wrapper updates the tag of every PM-pointer argument by the
   furthest offset the built-in will touch, masks it, and then performs
   the operation with the masked addresses. If any tag update set the
   overflow bit, the masked address is unmapped and the operation faults
   before corrupting memory — preserving SPP's memory-safety property
   without an explicit bounds branch. *)

open Spp_sim

let wrap_memcpy cfg space ~dst ~src ~len =
  let dst' = Runtime.spp_memintr_check cfg dst len in
  let src' = Runtime.spp_memintr_check cfg src len in
  Space.blit space ~src:src' ~dst:dst' ~len

let wrap_memmove cfg space ~dst ~src ~len =
  (* Space.blit is memmove-safe for overlapping ranges. *)
  wrap_memcpy cfg space ~dst ~src ~len

let wrap_memset cfg space ~dst ~c ~len =
  let dst' = Runtime.spp_memintr_check cfg dst len in
  Space.fill space dst' len c

(* String functions. The wrapper first masks the argument (so an already
   overflown pointer faults on the scan), measures the string, then
   re-checks the full range it is about to read or write. *)

let wrap_strlen cfg space s =
  let s' = Runtime.spp_cleantag cfg s in
  Space.strlen space s'

let wrap_strcpy cfg space ~dst ~src =
  let n = wrap_strlen cfg space src + 1 in   (* include NUL *)
  let src' = Runtime.spp_memintr_check cfg src n in
  let dst' = Runtime.spp_memintr_check cfg dst n in
  Space.blit space ~src:src' ~dst:dst' ~len:n

let wrap_strncpy cfg space ~dst ~src ~n =
  let len = min n (wrap_strlen cfg space src + 1) in
  let src' = Runtime.spp_memintr_check cfg src len in
  let dst' = Runtime.spp_memintr_check cfg dst n in
  Space.blit space ~src:src' ~dst:dst' ~len;
  if len < n then Space.fill space (dst' + len) (n - len) '\000'

let wrap_strcat cfg space ~dst ~src =
  let dlen = wrap_strlen cfg space dst in
  let slen = wrap_strlen cfg space src + 1 in
  let src' = Runtime.spp_memintr_check cfg src slen in
  let dst' = Runtime.spp_memintr_check cfg dst (dlen + slen) in
  Space.blit space ~src:src' ~dst:(dst' + dlen) ~len:slen

let wrap_strcmp cfg space a b =
  let a' = Runtime.spp_cleantag cfg a in
  let b' = Runtime.spp_cleantag cfg b in
  Space.strcmp space a' b'
