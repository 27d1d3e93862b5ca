(* PMEMoid — the persistent pointer (paper §II-B, §IV-B).

   Native PMDK stores { pool_uuid; off } (16 B). SPP extends it with the
   object size (24 B); the extra field is what lets pmemobj_direct rebuild
   the pointer tag across restarts and crashes. The [size] field is kept
   in the record in both modes but only stored to PM in SPP mode — see
   [Rep.store_oid]. *)

type t = {
  uuid : int;   (* pool id *)
  off : int;    (* object offset relative to the pool base *)
  size : int;   (* object size; durable only in SPP mode *)
}

let null = { uuid = 0; off = 0; size = 0 }

let is_null t = t.off = 0

let equal a b = a.uuid = b.uuid && a.off = b.off

let pp ppf t =
  if is_null t then Format.pp_print_string ppf "OID_NULL"
  else Format.fprintf ppf "{uuid=%d; off=0x%x; size=%d}" t.uuid t.off t.size
