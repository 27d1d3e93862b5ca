(* engines — the registry of engine modules behind {!Engine.S}.

   Lives apart from [Engine] so the interface module never depends on
   its implementations (Cmap and Bmap both depend on Engine for the
   shared batch types). *)

let cmap : Engine.spec = (module Cmap)
let btree : Engine.spec = (module Bmap)

let names = [ "cmap"; "btree" ]

let of_name = function
  | "cmap" -> Some cmap
  | "btree" | "bmap" -> Some btree
  | _ -> None
