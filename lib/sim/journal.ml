(* Growable-array journal: an append-only sequence with O(1) amortized
   push, used for the tracking-mode store journal and event trace in
   [Memdev]. Replaces the newest-first cons lists the tracking engine
   grew by — appending keeps program order directly, so consumers never
   pay a [List.rev], and iteration is cache-friendly. *)

type 'a t = {
  mutable arr : 'a array;
  mutable len : int;
}

let create () = { arr = [||]; len = 0 }

let length t = t.len

let is_empty t = t.len = 0

let push t x =
  let cap = Array.length t.arr in
  if t.len = cap then begin
    let arr' = Array.make (max 16 (2 * cap)) x in
    Array.blit t.arr 0 arr' 0 t.len;
    t.arr <- arr'
  end;
  Array.unsafe_set t.arr t.len x;
  t.len <- t.len + 1

let clear t =
  (* Drop the backing store too: journals are cleared at crash/reset
     points where holding onto a large buffer would pin dead payloads. *)
  t.arr <- [||];
  t.len <- 0

let to_list t = List.init t.len (fun i -> t.arr.(i))

let to_array t = Array.sub t.arr 0 t.len

let filter_in_place keep t =
  let j = ref 0 in
  for i = 0 to t.len - 1 do
    let x = Array.unsafe_get t.arr i in
    if keep x then begin
      Array.unsafe_set t.arr !j x;
      incr j
    end
  done;
  t.len <- !j
