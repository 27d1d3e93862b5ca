(* Volatile heap allocator over a mapped Volatile region.

   Metadata lives on the OCaml side (a volatile allocator has no crash
   consistency to maintain): a sorted free list with first-fit allocation,
   splitting and coalescing, plus a live-block table for [free]/[realloc]
   validation and for the memcheck baseline to inspect. *)

type block = { b_addr : int; b_size : int }

type t = {
  space : Space.t;
  base : int;
  hsize : int;
  mutable free_list : block list;       (* sorted by address *)
  live : (int, int) Hashtbl.t;          (* addr -> requested size *)
}

let default_base = 1 lsl 45
(* Volatile allocations live high in the simulated address space, far from
   PM pools which are mapped low (PMEM_MMAP_HINT = 0 in the paper). *)

let create ?(base = default_base) space size =
  let dev = Memdev.create_volatile ~name:"vheap" size in
  Space.map space ~base ~size ~kind:Space.Volatile ~name:"vheap" dev;
  { space; base; hsize = size; free_list = [ { b_addr = base; b_size = size } ];
    live = Hashtbl.create 1024 }

(* blocks are 16-byte aligned, as glibc malloc's are on 64-bit *)
let round_up v = (v + 15) / 16 * 16

let malloc t req =
  if req <= 0 then invalid_arg "Vheap.malloc: non-positive size";
  let need = round_up req in
  let rec take acc = function
    | [] -> None
    | b :: rest ->
      if b.b_size >= need then begin
        let remainder =
          if b.b_size > need then
            [ { b_addr = b.b_addr + need; b_size = b.b_size - need } ]
          else []
        in
        Some (b.b_addr, List.rev_append acc (remainder @ rest))
      end else take (b :: acc) rest
  in
  match take [] t.free_list with
  | None -> raise Out_of_memory
  | Some (addr, fl) ->
    t.free_list <- List.sort (fun a b -> compare a.b_addr b.b_addr) fl;
    Hashtbl.replace t.live addr req;
    addr

let coalesce blocks =
  let sorted = List.sort (fun a b -> compare a.b_addr b.b_addr) blocks in
  let rec go = function
    | a :: b :: rest when a.b_addr + a.b_size = b.b_addr ->
      go ({ b_addr = a.b_addr; b_size = a.b_size + b.b_size } :: rest)
    | a :: rest -> a :: go rest
    | [] -> []
  in
  go sorted

let free t addr =
  match Hashtbl.find_opt t.live addr with
  | None -> invalid_arg "Vheap.free: not a live allocation"
  | Some req ->
    Hashtbl.remove t.live addr;
    let sz = round_up req in
    t.free_list <- coalesce ({ b_addr = addr; b_size = sz } :: t.free_list)

let realloc t addr req =
  match Hashtbl.find_opt t.live addr with
  | None -> invalid_arg "Vheap.realloc: not a live allocation"
  | Some old ->
    let fresh = malloc t req in
    Space.blit t.space ~src:addr ~dst:fresh ~len:(min old req);
    free t addr;
    fresh

let live_allocations t =
  Hashtbl.fold (fun addr sz acc -> (addr, sz) :: acc) t.live []
  |> List.sort compare

let bytes_live t =
  Hashtbl.fold (fun _ sz acc -> acc + round_up sz) t.live 0
