(* Socket front end: one I/O domain runs a [Unix.select] loop over the
   listener, a self-pipe and every connection's non-blocking socket.

   Replies are encoded on the loop: at once for a cache hit or an op
   that the loop ran itself — on a shard it found idle inside
   [Serve.submit], or queued behind a shard the loop held; through
   [post], which queues a closure and writes a byte to the pipe, for a
   ticket another domain or the helper thread resolved (its [notify]
   runs on that holder) and for a scan (run on the helper thread, which
   may hold shards too, so "on the loop" means the loop's thread, not
   its domain). Holding a shard, the loop may run requests that other
   domains queued behind it, and under threaded semi-sync or sync
   replication it waits for the replicas' acks.
   Each sweep decodes what every connection has buffered, writes what
   its peer will take and closes the connections that are done. The
   loop's thread blocks SIGPIPE, so a vanished peer fails its write with
   EPIPE and the rest of the process keeps its own handling. *)

open Spp_shard

type stats = {
  sv_accepted : int;
  sv_requests : int;
  sv_replies : int;
  sv_malformed : int;
}

type input =
  | Open   (* reading the socket *)
  | Eof    (* no more reads; frames already read are still served *)
  | Shut   (* corrupt frame: nothing more is decoded *)
  | Dead   (* a write failed: close now; late replies go unwritten *)

type conn = {
  c_fd : Unix.file_descr;
  c_dec : Wire.decoder;
  c_out : Buffer.t;        (* encoded replies from stream offset [c_base] on *)
  mutable c_base : int;
  mutable c_sent : int;    (* stream bytes written *)
  c_ends : int Queue.t;    (* stream offset ending each frame not yet written *)
  mutable c_owed : int;    (* requests dispatched, not yet answered *)
  mutable c_scan : bool;   (* a scan is out: decode nothing until it returns *)
  mutable c_in : input;
}

type t = {
  ns_serve : Serve.t;
  ns_sock : Unix.file_descr;
  ns_addr : Unix.sockaddr;
  ns_wake : Unix.file_descr * Unix.file_descr;   (* self-pipe *)
  ns_accepted : int Atomic.t;
  ns_requests : int Atomic.t;
  ns_replies : int Atomic.t;
  ns_malformed : int Atomic.t;
  ns_stopping : bool Atomic.t;
  ns_mu : Mutex.t;                      (* guards the fields below *)
  ns_posted : (unit -> unit) Queue.t;   (* completions for the loop *)
  mutable ns_poked : bool;              (* a byte is in the pipe *)
  mutable ns_closed : bool;             (* the loop is gone: never poke *)
  ns_scans : (unit -> unit) option Queue.t;   (* [None] ends the helper *)
  ns_scan_cv : Condition.t;
  mutable ns_loop : unit Domain.t option;
}

(* Unsent reply bytes at which a connection stops being read *)
let out_cap = 1 lsl 18

let parse_addr s =
  let fail () = invalid_arg ("bad address (unix:PATH | PORT | HOST:PORT): " ^ s) in
  if String.length s > 5 && String.sub s 0 5 = "unix:" then
    Unix.ADDR_UNIX (String.sub s 5 (String.length s - 5))
  else
    match String.rindex_opt s ':' with
    | None ->
      (match int_of_string_opt s with
       | Some port when port >= 0 && port < 65536 ->
         Unix.ADDR_INET (Unix.inet_addr_loopback, port)
       | _ -> fail ())
    | Some i ->
      let host = String.sub s 0 i
      and port = String.sub s (i + 1) (String.length s - i - 1) in
      (match int_of_string_opt port with
       | Some port when port >= 0 && port < 65536 ->
         (try Unix.ADDR_INET (Unix.inet_addr_of_string host, port)
          with _ ->
            (try
               Unix.ADDR_INET
                 ((Unix.gethostbyname host).Unix.h_addr_list.(0), port)
             with _ -> fail ()))
       | _ -> fail ())

let pp_addr ppf = function
  | Unix.ADDR_UNIX path -> Format.fprintf ppf "unix:%s" path
  | Unix.ADDR_INET (a, p) ->
    Format.fprintf ppf "%s:%d" (Unix.string_of_inet_addr a) p

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()
let unlink = function
  | Unix.ADDR_UNIX path -> (try Unix.unlink path with _ -> ())
  | _ -> ()
let pending c = c.c_base + Buffer.length c.c_out - c.c_sent
let raised e = Serve.Failed (Serve.Op_raised (Printexc.to_string e))
let poke = Bytes.make 1 '!'

(* Hand a completion to the loop, from another shard holder. The
   loop clears [ns_poked] as it takes the queue, so the pipe never holds
   more than one byte. *)
let post t f =
  Mutex.lock t.ns_mu;
  if not (t.ns_poked || t.ns_closed) then begin
    t.ns_poked <- true;
    try ignore (Unix.single_write (snd t.ns_wake) poke 0 1)
    with Unix.Unix_error _ -> ()
  end;
  if not t.ns_closed then Queue.push f t.ns_posted;
  Mutex.unlock t.ns_mu

let push_scan t job =
  Mutex.protect t.ns_mu (fun () ->
    Queue.push job t.ns_scans;
    Condition.signal t.ns_scan_cv)

(* The helper thread: runs scans one at a time, off the loop *)
let rec scanner t =
  Mutex.lock t.ns_mu;
  while Queue.is_empty t.ns_scans do Condition.wait t.ns_scan_cv t.ns_mu done;
  let job = Queue.pop t.ns_scans in
  Mutex.unlock t.ns_mu;
  Option.iter (fun f -> f (); scanner t) job

let reply c corr r =
  c.c_owed <- c.c_owed - 1;
  (try Wire.encode_reply c.c_out ~corr r
   with Invalid_argument m ->   (* a scan too large for one frame *)
     Wire.encode_reply c.c_out ~corr (Serve.Failed (Serve.Op_raised m)));
  Queue.push (c.c_base + Buffer.length c.c_out) c.c_ends

let dispatch t me c corr (req : Serve.request) =
  Atomic.incr t.ns_requests;
  c.c_owed <- c.c_owed + 1;
  match req with
  | Serve.Scan { lo; hi; limit } ->
    c.c_scan <- true;
    push_scan t @@ Some (fun () ->
      let r =
        match Serve.scan t.ns_serve ~lo ~hi ~limit with
        | Ok kvs -> Serve.Scanned kvs
        | Error f -> Serve.Failed f
        | exception e -> raised e
      in
      post t (fun () -> c.c_scan <- false; reply c corr r))
  | _ ->
    (* a cache hit or an op the loop ran is answered here, on the
       loop *)
    let notify r =
      if Thread.id (Thread.self ()) = me then reply c corr r
      else post t (fun () -> reply c corr r)
    in
    (try ignore (Serve.submit ~notify t.ns_serve req)
     with e -> reply c corr (raised e))

(* Decode and dispatch buffered frames, until a scan is out, the input
   is corrupt or [out_cap] bytes wait to be written *)
let rec pump t me c =
  if c.c_in <> Shut && (not c.c_scan) && pending c < out_cap then
    match Wire.next_request c.c_dec with
    | Wire.Awaiting -> ()
    | Wire.Msg (corr, req) ->
      dispatch t me c corr req;
      pump t me c
    | Wire.Corrupt _ ->
      Atomic.incr t.ns_malformed;
      c.c_in <- Shut

(* Write [c_out] as far as the peer takes it and count the frames that
   went out whole. The written prefix is dropped once nothing is unsent,
   or once it reaches both [out_cap] and the length of the unsent tail,
   which is moved to the front: the buffer stays within twice the larger
   of [out_cap] and the unsent bytes, and the bytes moved never exceed
   the bytes written. *)
let flush t buf c =
  let rec write () =
    let len = pending c in
    if len > 0 then begin
      let n = min len (Bytes.length buf) in
      Buffer.blit c.c_out (c.c_sent - c.c_base) buf 0 n;
      match Unix.single_write c.c_fd buf 0 n with
      | w -> c.c_sent <- c.c_sent + w; if w = n then write ()
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> c.c_in <- Dead
    end
  in
  write ();
  while (not (Queue.is_empty c.c_ends)) && Queue.peek c.c_ends <= c.c_sent do
    ignore (Queue.pop c.c_ends);
    Atomic.incr t.ns_replies
  done;
  let pos = c.c_sent - c.c_base and len = pending c in
  if pos > 0 && (len = 0 || pos >= max len out_cap) then begin
    let tail = Buffer.sub c.c_out pos len in
    Buffer.clear c.c_out;
    Buffer.add_string c.c_out tail;
    c.c_base <- c.c_sent
  end

(* Pump and flush until the connection waits on its peer *)
let rec drive t me buf c =
  pump t me c;
  let before = pending c in
  flush t buf c;
  if before >= out_cap && pending c < before then drive t me buf c

(* [select] raises EINVAL for a descriptor at or above FD_SETSIZE *)
let selectable fd =
  match Unix.select [ fd ] [] [] 0. with
  | _ -> true
  | exception Unix.Unix_error (e, _, _) -> e <> Unix.EINVAL

(* [false]: out of descriptors or the like, so stop watching the
   listener for now instead of spinning on it *)
let accept t conns =
  match Unix.accept ~cloexec:true t.ns_sock with
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR | ECONNABORTED), _, _)
    -> true
  | exception Unix.Unix_error _ -> false
  | fd, _ when not (selectable fd) -> close_quietly fd; true
  | fd, _ ->
    Unix.set_nonblock fd;
    if Unix.domain_of_sockaddr t.ns_addr <> Unix.PF_UNIX then
      (try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ());
    Atomic.incr t.ns_accepted;
    Hashtbl.replace conns fd
      { c_fd = fd; c_dec = Wire.decoder (); c_out = Buffer.create 1024;
        c_base = 0; c_sent = 0; c_ends = Queue.create (); c_owed = 0;
        c_scan = false; c_in = Open };
    true

let run t =
  (* on this thread only; the helper thread inherits it *)
  ignore (Thread.sigmask Unix.SIG_BLOCK [ Sys.sigpipe ]);
  let me = Thread.id (Thread.self ()) and wake_r = fst t.ns_wake in
  let buf = Bytes.create 65536 and posted = Queue.create () in
  let conns = Hashtbl.create 16 and rd = ref [] and wr = ref [] in
  let listening = ref true and stopping = ref false in
  let helper = Thread.create scanner t in
  (* serve every connection, close the finished ones, collect the rest *)
  let sweep () =
    rd := [ wake_r ];
    wr := [];
    Hashtbl.filter_map_inplace
      (fun fd c ->
        if !stopping && c.c_in = Open then c.c_in <- Eof;
        drive t me buf c;
        if c.c_in = Dead || (c.c_in <> Open && c.c_owed = 0 && pending c = 0)
        then (close_quietly fd; listening := true; None)
        else begin
          if c.c_in = Open && (not c.c_scan) && pending c < out_cap then
            rd := fd :: !rd;
          if pending c > 0 then wr := fd :: !wr;
          Some c
        end)
      conns
  in
  let event fd =
    if fd = wake_r then begin
      (try ignore (Unix.read fd buf 0 64) with Unix.Unix_error _ -> ());
      Mutex.protect t.ns_mu (fun () ->
        Queue.transfer t.ns_posted posted;
        t.ns_poked <- false);
      Queue.iter (fun f -> f ()) posted;
      Queue.clear posted
    end
    else if fd = t.ns_sock then listening := accept t conns
    else
      match Hashtbl.find_opt conns fd with
      | None -> ()
      | Some c ->
        (match Unix.read fd buf 0 (Bytes.length buf) with
         | 0 -> c.c_in <- Eof
         | n -> Wire.feed c.c_dec buf ~off:0 ~len:n
         | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
         | exception Unix.Unix_error _ -> c.c_in <- Eof)
  in
  let rec loop () =
    stopping := Atomic.get t.ns_stopping;
    sweep ();
    if not (!stopping && Hashtbl.length conns = 0) then begin
      let watch = if !listening && not !stopping then t.ns_sock :: !rd else !rd in
      (match Unix.select watch !wr [] (if !listening then -1. else 1.) with
       | exception Unix.Unix_error (EINTR, _, _) -> ()
       | [], [], _ -> listening := true   (* idle for a second: retry accept *)
       | r, _, _ -> List.iter event r);
      loop ()
    end
  in
  Fun.protect loop ~finally:(fun () ->
    Mutex.protect t.ns_mu (fun () -> t.ns_closed <- true);
    push_scan t None;
    Thread.join helper;
    Hashtbl.iter (fun fd _ -> close_quietly fd) conns;
    List.iter close_quietly [ t.ns_sock; wake_r; snd t.ns_wake ])

let create serve addr =
  unlink addr;   (* a stale Unix-domain path *)
  let sock =
    Unix.socket ~cloexec:true (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0
  in
  let wake_r, wake_w =
    try Unix.pipe ~cloexec:true () with e -> close_quietly sock; raise e
  in
  let fail e = List.iter close_quietly [ sock; wake_r; wake_w ]; raise e in
  (try
     if not (selectable sock && selectable wake_r) then
       failwith "Net_server.create: descriptor beyond what select can watch";
     List.iter Unix.set_nonblock [ sock; wake_r; wake_w ];
     if Unix.domain_of_sockaddr addr <> Unix.PF_UNIX then
       Unix.setsockopt sock Unix.SO_REUSEADDR true;
     Unix.bind sock addr;
     Unix.listen sock 64
   with e -> fail e);
  let t =
    { ns_serve = serve; ns_sock = sock; ns_addr = Unix.getsockname sock;
      ns_wake = (wake_r, wake_w); ns_accepted = Atomic.make 0;
      ns_requests = Atomic.make 0; ns_replies = Atomic.make 0;
      ns_malformed = Atomic.make 0; ns_stopping = Atomic.make false;
      ns_mu = Mutex.create (); ns_posted = Queue.create (); ns_poked = false;
      ns_closed = false; ns_scans = Queue.create ();
      ns_scan_cv = Condition.create (); ns_loop = None }
  in
  (try t.ns_loop <- Some (Domain.spawn (fun () -> run t)) with e -> fail e);
  t

let addr t = t.ns_addr

let stats t =
  { sv_accepted = Atomic.get t.ns_accepted;
    sv_requests = Atomic.get t.ns_requests;
    sv_replies = Atomic.get t.ns_replies;
    sv_malformed = Atomic.get t.ns_malformed }

let stop t =
  if not (Atomic.exchange t.ns_stopping true) then begin
    post t ignore;   (* wake the loop to see the flag *)
    Option.iter Domain.join t.ns_loop;
    unlink t.ns_addr
  end
