(* Tests for the wire front end: codec round-trips (QCheck, over every
   request/reply shape including binary strings), torn-frame resumable
   decoding at 1-byte granularity, malformed-frame rejection, the
   server/client end-to-end path over Unix and TCP loopback sockets —
   including proof that a hostile connection dies alone while the worker
   domains keep serving — plus the YCSB generator, the load-generator
   accounting, the empty-histogram contract and the atomic JSON write. *)

open Spp_shard
open Spp_benchlib
open Spp_net

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let sock_path tag =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "spp-test-net-%d-%s.sock" (Unix.getpid ()) tag)

(* --- codec: generators ------------------------------------------------ *)

(* Arbitrary bytes, including NULs and high bits — the codec must be
   8-bit clean. *)
let gen_blob max_len =
  QCheck.Gen.(
    int_range 0 max_len >>= fun n ->
    string_size ~gen:(map Char.chr (int_range 0 255)) (return n))

let gen_request =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          map2
            (fun key value -> Serve.Put { key; value })
            (gen_blob 64) (gen_blob 300) );
        (3, map (fun k -> Serve.Get k) (gen_blob 64));
        (2, map (fun k -> Serve.Remove k) (gen_blob 64));
        ( 1,
          map3
            (fun lo hi limit -> Serve.Scan { lo; hi; limit })
            (gen_blob 32) (gen_blob 32) (int_range 0 5000) );
      ])

let gen_reply =
  QCheck.Gen.(
    frequency
      [
        (2, return Serve.Done);
        (2, map (fun v -> Serve.Value (Some v)) (gen_blob 300));
        (1, return (Serve.Value None));
        (1, return (Serve.Removed true));
        (1, return (Serve.Removed false));
        ( 2,
          map
            (fun kvs -> Serve.Scanned kvs)
            (list_size (int_range 0 12) (pair (gen_blob 32) (gen_blob 80))) );
        (1, map (fun m -> Serve.Failed (Serve.Op_raised m)) (gen_blob 100));
        (1, return (Serve.Failed Serve.Failed_over));
      ])

let pp_request r =
  match (r : Serve.request) with
  | Serve.Put { key; value } ->
    Printf.sprintf "Put(%S,%d bytes)" key (String.length value)
  | Serve.Get k -> Printf.sprintf "Get(%S)" k
  | Serve.Remove k -> Printf.sprintf "Remove(%S)" k
  | Serve.Scan { lo; hi; limit } -> Printf.sprintf "Scan(%S,%S,%d)" lo hi limit

let arb_requests =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map pp_request l))
    QCheck.Gen.(list_size (int_range 1 20) gen_request)

let arb_replies =
  QCheck.make
    ~print:(fun l -> string_of_int (List.length l))
    QCheck.Gen.(list_size (int_range 1 20) gen_reply)

(* Encode [msgs] with ascending corr ids into one byte stream, then
   decode it fed in [chunk]-byte slices; the decoded (corr, msg) stream
   must equal the input exactly. *)
let round_trip ~encode ~next ~chunk msgs =
  let b = Buffer.create 256 in
  List.iteri (fun i m -> encode b ~corr:i m) msgs;
  let stream = Buffer.contents b in
  let d = Wire.decoder ~initial:16 () in
  let out = ref [] in
  let pos = ref 0 in
  let pop_all () =
    let continue = ref true in
    while !continue do
      match next d with
      | Wire.Msg (corr, m) -> out := (corr, m) :: !out
      | Wire.Awaiting -> continue := false
      | Wire.Corrupt msg -> failwith ("unexpected Corrupt: " ^ msg)
    done
  in
  while !pos < String.length stream do
    let len = min chunk (String.length stream - !pos) in
    Wire.feed_string d (String.sub stream !pos len);
    pos := !pos + len;
    pop_all ()
  done;
  List.rev !out = List.mapi (fun i m -> (i, m)) msgs
  && Wire.buffered d = 0

let qcheck_request_round_trip =
  QCheck.Test.make ~name:"wire: request round-trip (whole stream)" ~count:200
    arb_requests
    (round_trip ~encode:Wire.encode_request ~next:Wire.next_request
       ~chunk:max_int)

let qcheck_request_torn =
  QCheck.Test.make ~name:"wire: request round-trip (1-byte feed)" ~count:60
    arb_requests
    (round_trip ~encode:Wire.encode_request ~next:Wire.next_request ~chunk:1)

let qcheck_reply_round_trip =
  QCheck.Test.make ~name:"wire: reply round-trip (whole stream)" ~count:200
    arb_replies
    (round_trip ~encode:Wire.encode_reply ~next:Wire.next_reply ~chunk:max_int)

let qcheck_reply_torn =
  QCheck.Test.make ~name:"wire: reply round-trip (1-byte feed)" ~count:60
    arb_replies
    (round_trip ~encode:Wire.encode_reply ~next:Wire.next_reply ~chunk:1)

(* --- codec: explicit torn/malformed cases ----------------------------- *)

let encode_one_request ?(corr = 7) req =
  let b = Buffer.create 64 in
  Wire.encode_request b ~corr req;
  Buffer.contents b

let test_torn_frame_resume () =
  (* a multi-message stream fed byte by byte never pops early: the
     decoder reports Awaiting until the exact byte completing a frame *)
  let reqs =
    [ Serve.Put { key = "k\x00ey"; value = String.make 300 '\xff' };
      Serve.Get ""; Serve.Scan { lo = "a"; hi = "z"; limit = 17 } ]
  in
  let stream = String.concat "" (List.map encode_one_request reqs) in
  let d = Wire.decoder ~initial:16 () in
  let popped = ref [] in
  String.iteri
    (fun _ c ->
      Wire.feed_string d (String.make 1 c);
      match Wire.next_request d with
      | Wire.Msg (corr, r) ->
        check_int "echoed corr" 7 corr;
        popped := r :: !popped
      | Wire.Awaiting -> ()
      | Wire.Corrupt m -> Alcotest.failf "corrupt on valid stream: %s" m)
    stream;
  check_int "all frames popped" (List.length reqs) (List.length !popped);
  check_bool "frames round-tripped in order" true (List.rev !popped = reqs);
  check_int "decoder drained" 0 (Wire.buffered d)

let expect_corrupt what stream =
  let d = Wire.decoder () in
  Wire.feed_string d stream;
  match Wire.next_request d with
  | Wire.Corrupt _ -> ()
  | Wire.Msg _ -> Alcotest.failf "%s: parsed as a message" what
  | Wire.Awaiting -> Alcotest.failf "%s: still awaiting" what

let test_malformed_frames () =
  let valid = encode_one_request (Serve.Get "key") in
  (* unknown tag *)
  let bad_tag = Bytes.of_string valid in
  Bytes.set bad_tag 8 '\x7f';
  expect_corrupt "unknown tag" (Bytes.to_string bad_tag);
  (* reply tag on the request stream *)
  let reply_tag = Bytes.of_string valid in
  Bytes.set reply_tag 8 '\x81';
  expect_corrupt "reply tag in request stream" (Bytes.to_string reply_tag);
  (* payload length beyond max_frame — rejected before any allocation *)
  let oversize = Bytes.of_string valid in
  Bytes.set oversize 3 '\xff';
  expect_corrupt "oversized length" (Bytes.to_string oversize);
  (* length too small to hold the header *)
  expect_corrupt "undersized length" "\x02\x00\x00\x00\x00\x00";
  (* inner string length overruns the declared payload *)
  let overrun = Bytes.of_string valid in
  Bytes.set overrun 9 '\xff';
  Bytes.set overrun 10 '\xff';
  expect_corrupt "string overruns payload" (Bytes.to_string overrun);
  (* trailing garbage inside a declared frame *)
  let padded =
    let b = Buffer.create 32 in
    Buffer.add_string b "\x0a\x00\x00\x00";          (* payload len 10 *)
    Buffer.add_string b "\x01\x00\x00\x00";          (* corr *)
    Buffer.add_char b '\x02';                        (* Get *)
    Buffer.add_string b "\x01\x00k";                 (* key "k" *)
    (* declared 10 = 5 + 2 + 1 + 2 trailing bytes *)
    Buffer.add_string b "xx";
    Buffer.contents b
  in
  (* fix the length byte: payload = 4 corr + 1 tag + 3 key + 2 trailing *)
  let padded = "\x0a\x00\x00\x00" ^ String.sub padded 4 (String.length padded - 4) in
  expect_corrupt "trailing bytes in frame" padded

let test_scanned_hostile_count () =
  (* a Scanned reply whose count field promises more entries than the
     payload can hold must be rejected without allocating the list *)
  let b = Buffer.create 32 in
  Wire.encode_reply b ~corr:1 (Serve.Scanned [ ("k", "v") ]);
  let s = Bytes.of_string (Buffer.contents b) in
  (* count is the u32 after the 4B length + 4B corr + 1B tag *)
  Bytes.set s 9 '\xff';
  Bytes.set s 10 '\xff';
  let d = Wire.decoder () in
  Wire.feed_string d (Bytes.to_string s);
  (match Wire.next_reply d with
   | Wire.Corrupt _ -> ()
   | _ -> Alcotest.fail "hostile scan count accepted")

let test_encode_rejects_oversize_key () =
  let b = Buffer.create 16 in
  (try
     Wire.encode_request b ~corr:0 (Serve.Get (String.make 70_000 'k'));
     Alcotest.fail "oversized key accepted"
   with Invalid_argument _ -> ());
  (* an oversized Op_raised message is truncated, not rejected *)
  Buffer.clear b;
  Wire.encode_reply b ~corr:0
    (Serve.Failed (Serve.Op_raised (String.make 70_000 'm')));
  let d = Wire.decoder () in
  Wire.feed_string d (Buffer.contents b);
  (match Wire.next_reply d with
   | Wire.Msg (_, Serve.Failed (Serve.Op_raised m)) ->
     check_int "truncated to max_key" Wire.max_key (String.length m)
   | _ -> Alcotest.fail "truncated failure did not round-trip")

(* --- server/client end to end ----------------------------------------- *)

let mk_store ?(engine = Spp_pmemkv.Engines.cmap) ?(nshards = 2) ?cache_cap
    () =
  Shard.create ~nbuckets:64 ~pool_size:(1 lsl 22) ?cache_cap ~engine ~nshards
    Spp_access.Spp

let with_server ?engine ?nshards ?cache_cap ~tag f =
  let t = mk_store ?engine ?nshards ?cache_cap () in
  let sv = Serve.create ~batch_cap:8 t in
  let srv = Net_server.create sv (Unix.ADDR_UNIX (sock_path tag)) in
  Fun.protect
    ~finally:(fun () ->
      Net_server.stop srv;
      Serve.stop sv)
    (fun () -> f srv)

let test_end_to_end_unix () =
  with_server ~engine:Spp_pmemkv.Engines.btree ~tag:"e2e" (fun srv ->
    let cl = Net_client.connect (Net_server.addr srv) in
    Fun.protect
      ~finally:(fun () -> Net_client.close cl)
      (fun () ->
        (match Net_client.put cl ~key:"alpha" ~value:"1" with
         | Serve.Done -> ()
         | _ -> Alcotest.fail "put");
        (match Net_client.get cl "alpha" with
         | Serve.Value (Some v) -> check_string "get back" "1" v
         | _ -> Alcotest.fail "get");
        (match Net_client.get cl "missing" with
         | Serve.Value None -> ()
         | _ -> Alcotest.fail "get missing");
        ignore (Net_client.put cl ~key:"beta" ~value:"2");
        ignore (Net_client.put cl ~key:"gamma" ~value:"3");
        (match Net_client.scan cl ~lo:"alpha" ~hi:"zz" ~limit:10 with
         | Serve.Scanned kvs ->
           check_bool "scan ordered over the wire" true
             (List.map fst kvs = [ "alpha"; "beta"; "gamma" ])
         | _ -> Alcotest.fail "scan");
        (match Net_client.remove cl "beta" with
         | Serve.Removed true -> ()
         | _ -> Alcotest.fail "remove");
        (match Net_client.remove cl "beta" with
         | Serve.Removed false -> ()
         | _ -> Alcotest.fail "re-remove")))

let test_end_to_end_tcp () =
  (* port 0: kernel picks; Net_server.addr reports the bound port *)
  let t = mk_store () in
  let sv = Serve.create ~batch_cap:8 t in
  let srv =
    Net_server.create sv (Unix.ADDR_INET (Unix.inet_addr_loopback, 0))
  in
  Fun.protect
    ~finally:(fun () ->
      Net_server.stop srv;
      Serve.stop sv)
    (fun () ->
      (match Net_server.addr srv with
       | Unix.ADDR_INET (_, p) -> check_bool "kernel-assigned port" true (p > 0)
       | _ -> Alcotest.fail "expected inet addr");
      let cl = Net_client.connect ~pool:2 (Net_server.addr srv) in
      Fun.protect
        ~finally:(fun () -> Net_client.close cl)
        (fun () ->
          ignore (Net_client.put cl ~key:"k" ~value:"v");
          match Net_client.get cl "k" with
          | Serve.Value (Some "v") -> ()
          | _ -> Alcotest.fail "tcp get"))

let test_pipelined_futures () =
  with_server ~tag:"pipe" (fun srv ->
    let cl = Net_client.connect (Net_server.addr srv) in
    Fun.protect
      ~finally:(fun () -> Net_client.close cl)
      (fun () ->
        let n = 500 in
        let key i = Printf.sprintf "key%04d" (i mod 50) in
        let futs =
          Array.init n (fun i ->
            if i mod 3 = 0 then
              Net_client.send cl
                (Serve.Put { key = key i; value = string_of_int i })
            else Net_client.send cl (Serve.Get (key i)))
        in
        let ok = ref 0 in
        Array.iter
          (fun fu ->
            match Net_client.await cl fu with
            | Serve.Done | Serve.Value _ -> incr ok
            | _ -> ())
          futs;
        check_int "every pipelined reply arrived, none failed" n !ok;
        check_int "nothing left in flight" 0 (Net_client.inflight cl)))

let test_malformed_kills_connection_not_server () =
  with_server ~tag:"mal" (fun srv ->
    let addr = Net_server.addr srv in
    (* a healthy connection first *)
    let cl = Net_client.connect addr in
    ignore (Net_client.put cl ~key:"stay" ~value:"alive");
    (* hostile connection: raw garbage *)
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd addr;
    let garbage = Bytes.of_string "\xde\xad\xbe\xef\xde\xad\xbe\xef" in
    ignore (Unix.write fd garbage 0 (Bytes.length garbage));
    (* server closes it: read returns EOF eventually *)
    let buf = Bytes.create 16 in
    let rec drain () = if Unix.read fd buf 0 16 > 0 then drain () in
    (try drain () with Unix.Unix_error _ -> ());
    Unix.close fd;
    (* the worker domains and the healthy connection still serve *)
    (match Net_client.get cl "stay" with
     | Serve.Value (Some v) -> check_string "old conn survives" "alive" v
     | _ -> Alcotest.fail "healthy connection broken by hostile one");
    Net_client.close cl;
    (* and a fresh connection works too *)
    let cl2 = Net_client.connect addr in
    (match Net_client.get cl2 "stay" with
     | Serve.Value (Some _) -> ()
     | _ -> Alcotest.fail "server dead after malformed frame");
    Net_client.close cl2;
    let st = Net_server.stats srv in
    check_int "malformed counted" 1 st.Net_server.sv_malformed;
    check_bool "accepted all three" true (st.Net_server.sv_accepted >= 3))

let test_dead_server_fails_typed () =
  let t = mk_store () in
  let sv = Serve.create ~batch_cap:8 t in
  let srv = Net_server.create sv (Unix.ADDR_UNIX (sock_path "dead")) in
  let cl = Net_client.connect (Net_server.addr srv) in
  ignore (Net_client.put cl ~key:"k" ~value:"v");
  Net_server.stop srv;
  Serve.stop sv;
  (* sends against the dead server resolve to a typed failure, no hang *)
  let rec poll tries =
    match Net_client.get cl "k" with
    | Serve.Failed (Serve.Op_raised _) -> ()
    | _ when tries > 0 ->
      Unix.sleepf 0.01;
      poll (tries - 1)
    | _ -> Alcotest.fail "send on dead server did not fail typed"
  in
  poll 100;
  Net_client.close cl

let test_parse_addr () =
  (match Net_server.parse_addr "unix:/tmp/x.sock" with
   | Unix.ADDR_UNIX p -> check_string "unix path" "/tmp/x.sock" p
   | _ -> Alcotest.fail "unix:");
  (match Net_server.parse_addr "4242" with
   | Unix.ADDR_INET (a, p) ->
     check_int "bare port" 4242 p;
     check_bool "loopback" true (a = Unix.inet_addr_loopback)
   | _ -> Alcotest.fail "bare port");
  (match Net_server.parse_addr "127.0.0.1:80" with
   | Unix.ADDR_INET (_, p) -> check_int "host:port" 80 p
   | _ -> Alcotest.fail "host:port");
  List.iter
    (fun bad ->
      try
        ignore (Net_server.parse_addr bad);
        Alcotest.failf "accepted %S" bad
      with Invalid_argument _ -> ())
    [ ""; "notaport"; "host:notaport"; "99999" ]

(* --- one I/O loop for every connection ---------------------------------- *)

(* Raw unix-socket pieces for tests that control exactly when a
   connection connects, writes and reads. Reads time out, so a missing
   reply fails the test instead of hanging it. *)

let frame ?(corr = 0) req =
  let b = Buffer.create 32 in
  Wire.encode_request b ~corr req;
  Buffer.to_bytes b

let send_all fd b =
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(* The next reply on [fd]; [None] on EOF, reset, or [timeout] seconds of
   silence. *)
let recv_reply ?(timeout = 5.) fd dec =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout;
  let buf = Bytes.create 65536 in
  let rec go () =
    match Wire.next_reply dec with
    | Wire.Msg (corr, r) -> Some (corr, r)
    | Wire.Corrupt m -> Alcotest.failf "corrupt reply stream: %s" m
    | Wire.Awaiting ->
      (match Unix.read fd buf 0 (Bytes.length buf) with
       | 0 -> None
       | n ->
         Wire.feed dec buf ~off:0 ~len:n;
         go ()
       | exception
           Unix.Unix_error
             ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNRESET), _, _) ->
         None)
  in
  go ()

(* A non-blocking connect, retried while the listen backlog is full
   (EAGAIN) until a deadline; the socket is left blocking. *)
let connect_retry addr =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock fd;
  let deadline = Unix.gettimeofday () +. 5. in
  let rec go () =
    match Unix.connect fd addr with
    | () -> true
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
      when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.002;
      go ()
    | exception Unix.Unix_error _ -> false
  in
  let ok = go () in
  Unix.clear_nonblock fd;
  (fd, ok)

let test_more_connections_than_domains () =
  (* OCaml 5.1 allows 128 domains; 150 live connections would need 300
     if each had a reader and a writer domain *)
  with_server ~tag:"many" (fun srv ->
    let n = 150 in
    let fds = ref [] in
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close !fds)
      (fun () ->
        for i = 1 to n do
          let fd, ok = connect_retry (Net_server.addr srv) in
          fds := fd :: !fds;
          if not ok then Alcotest.failf "connection %d: connect failed" i;
          send_all fd
            (frame ~corr:i
               (Serve.Put { key = Printf.sprintf "conn%03d" i; value = "v" }));
          match recv_reply fd (Wire.decoder ()) with
          | Some (corr, Serve.Done) when corr = i -> ()
          | Some _ -> Alcotest.failf "connection %d: wrong reply" i
          | None -> Alcotest.failf "connection %d: no reply" i
        done;
        check_int "every connection accepted" n
          (Net_server.stats srv).Net_server.sv_accepted))

(* [Unix.select] raises EINVAL for a descriptor at or above FD_SETSIZE *)
let selectable fd =
  match Unix.select [ fd ] [] [] 0. with
  | _ -> true
  | exception Unix.Unix_error (Unix.EINVAL, _, _) -> false

let test_unwatchable_descriptor_closed () =
  with_server ~tag:"fdset" (fun srv ->
    let addr = Net_server.addr srv in
    let early = Net_client.connect addr in
    Fun.protect
      ~finally:(fun () -> Net_client.close early)
      (fun () ->
        ignore (Net_client.put early ~key:"k" ~value:"v");
        (* hold every descriptor select can watch, so the next socket
           on either side lands beyond them *)
        let dummies = ref [] in
        let rec fill () =
          match Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
          | fd ->
            dummies := fd :: !dummies;
            if selectable fd then fill ()
          | exception Unix.Unix_error (Unix.EMFILE, _, _) ->
            Alcotest.skip ()   (* descriptor limit below FD_SETSIZE *)
        in
        Fun.protect
          ~finally:(fun () -> List.iter Unix.close !dummies)
          (fun () ->
            fill ();
            let late = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Fun.protect
              ~finally:(fun () -> Unix.close late)
              (fun () ->
                Unix.connect late addr;
                Unix.setsockopt_float late Unix.SO_RCVTIMEO 5.;
                match Unix.read late (Bytes.create 16) 0 16 with
                | 0 | (exception Unix.Unix_error (Unix.ECONNRESET, _, _)) -> ()
                | _ -> Alcotest.fail "unwatchable connection was served"
                | exception Unix.Unix_error _ ->
                  Alcotest.fail "unwatchable connection left open");
            (match Net_client.get early "k" with
             | Serve.Value (Some "v") -> ()
             | _ -> Alcotest.fail "earlier connection no longer served"));
        (* and the loop still accepts once descriptors are free again *)
        let cl = Net_client.connect addr in
        Fun.protect
          ~finally:(fun () -> Net_client.close cl)
          (fun () ->
            match Net_client.get cl "k" with
            | Serve.Value (Some "v") -> ()
            | _ -> Alcotest.fail "fresh connection not served")))

let test_stalled_reader_does_not_stall_others () =
  with_server ~cache_cap:64 ~tag:"stall" (fun srv ->
    let addr = Net_server.addr srv in
    let big = String.make 65536 'x' in
    let cl = Net_client.connect addr in
    Fun.protect
      ~finally:(fun () -> Net_client.close cl)
      (fun () ->
        ignore (Net_client.put cl ~key:"big" ~value:big);
        ignore (Net_client.get cl "big");   (* now a cache hit *)
        (* A pipelines gets of the big value and reads nothing until its
           own socket buffer is full *)
        let a = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> Unix.close a)
          (fun () ->
            Unix.connect a addr;
            Unix.set_nonblock a;
            let get = frame (Serve.Get "big") in
            let rec fill sent =
              match Unix.single_write a get 0 (Bytes.length get) with
              | w when w = Bytes.length get -> fill (sent + 1)
              | _ -> Alcotest.fail "partial write of a small frame"
              | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
                -> sent
            in
            let sent = fill 0 in
            (* a second client is answered meanwhile *)
            let b, ok = connect_retry addr in
            Fun.protect
              ~finally:(fun () -> Unix.close b)
              (fun () ->
                check_bool "second client connects" true ok;
                send_all b
                  (Bytes.cat
                     (frame ~corr:1 (Serve.Put { key = "small"; value = "s" }))
                     (frame ~corr:2 (Serve.Get "small")));
                let dec = Wire.decoder () in
                let got = List.init 2 (fun _ -> recv_reply b dec) in
                check_bool "put and get answered while A is stalled" true
                  (List.sort compare got
                   = [ Some (1, Serve.Done); Some (2, Serve.Value (Some "s")) ]));
            (* A then reads every reply *)
            Unix.clear_nonblock a;
            let dec = Wire.decoder () in
            for i = 1 to sent do
              match recv_reply a dec with
              | Some (_, Serve.Value (Some v)) when v = big -> ()
              | _ -> Alcotest.failf "A's reply %d of %d missing" i sent
            done)))

let test_replies_counted_as_written () =
  with_server ~cache_cap:64 ~tag:"stream" (fun srv ->
    let addr = Net_server.addr srv in
    let big = String.make 65536 'x' in
    let cl = Net_client.connect addr in
    Fun.protect
      ~finally:(fun () -> Net_client.close cl)
      (fun () ->
        ignore (Net_client.put cl ~key:"big" ~value:big);
        ignore (Net_client.get cl "big");   (* now a cache hit *)
        (* A streams 64 gets of the big value with 16 in flight: 1 MiB,
           more than A's socket buffer and the server's unsent-reply cap
           hold, so while A holds back mid-stream replies stay unsent *)
        let a = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Fun.protect
          ~finally:(fun () -> Unix.close a)
          (fun () ->
            Unix.connect a addr;
            let total = 64 and window = 16 in
            let get i = frame ~corr:i (Serve.Get "big") in
            for i = 1 to window do send_all a (get i) done;
            let dec = Wire.decoder () in
            for i = 1 to total do
              (match recv_reply a dec with
               | Some (_, Serve.Value (Some v)) when v = big -> ()
               | _ -> Alcotest.failf "reply %d of %d missing" i total);
              if i = total / 2 then begin
                (* the [i] frames read (and [cl]'s two) were written
                   whole, so the count shows them mid-stream *)
                let deadline = Unix.gettimeofday () +. 5. in
                let rec counted () =
                  let n = (Net_server.stats srv).Net_server.sv_replies in
                  n >= i + 2
                  || Unix.gettimeofday () < deadline
                     && (Unix.sleepf 0.01; counted ())
                in
                if not (counted ()) then
                  Alcotest.failf "sv_replies %d after %d whole replies read"
                    (Net_server.stats srv).Net_server.sv_replies (i + 2)
              end;
              if i + window <= total then send_all a (get (i + window))
            done)))

let test_vanished_peer_dropped () =
  with_server ~cache_cap:64 ~tag:"vanish" (fun srv ->
    let addr = Net_server.addr srv in
    let cl = Net_client.connect addr in
    Fun.protect
      ~finally:(fun () -> Net_client.close cl)
      (fun () ->
        ignore (Net_client.put cl ~key:"big" ~value:(String.make 65536 'x'));
        ignore (Net_client.get cl "big");   (* now a cache hit *)
        (* a peer that asks for 4 MiB and leaves: writing to it fails
           with EPIPE, which must not take the process or the loop down *)
        let a = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.connect a addr;
        send_all a
          (Bytes.concat Bytes.empty (List.init 64 (fun i -> frame ~corr:i (Serve.Get "big"))));
        Unix.close a;
        Unix.sleepf 0.05;
        match Net_client.get cl "big" with
        | Serve.Value (Some v) -> check_int "still served" 65536 (String.length v)
        | _ -> Alcotest.fail "server stopped serving after a vanished peer"))

let test_scan_sees_writes_before_it_only () =
  with_server ~tag:"scanorder" (fun srv ->
    let cl = Net_client.connect (Net_server.addr srv) in
    Fun.protect
      ~finally:(fun () -> Net_client.close cl)
      (fun () ->
        (* pipelined on one connection: the scan must see [a], written
           before it, and not [b], written after it *)
        let pa = Net_client.send cl (Serve.Put { key = "a"; value = "1" }) in
        let sc = Net_client.send cl (Serve.Scan { lo = "a"; hi = "c"; limit = 10 }) in
        let pb = Net_client.send cl (Serve.Put { key = "b"; value = "2" }) in
        (match Net_client.await cl sc with
         | Serve.Scanned kvs ->
           check_bool "scan returns a and not b" true (kvs = [ ("a", "1") ])
         | _ -> Alcotest.fail "scan failed");
        check_bool "both puts done" true
          (Net_client.await cl pa = Serve.Done
           && Net_client.await cl pb = Serve.Done);
        match Net_client.scan cl ~lo:"a" ~hi:"c" ~limit:10 with
        | Serve.Scanned kvs ->
          check_bool "a later scan sees both" true (List.map fst kvs = [ "a"; "b" ])
        | _ -> Alcotest.fail "second scan failed"))

(* --- load generators --------------------------------------------------- *)

let test_loadgen_accounting () =
  with_server ~tag:"lg" (fun srv ->
    let cl = Net_client.connect (Net_server.addr srv) in
    Fun.protect
      ~finally:(fun () -> Net_client.close cl)
      (fun () ->
        let key i = Printf.sprintf "key%03d" (i mod 40) in
        let next i =
          if i mod 4 = 0 then
            [| Serve.Get (key i);
               Serve.Put { key = key i; value = "rmw" } |]
          else [| Serve.Put { key = key i; value = "v" } |]
        in
        let r = Loadgen.open_loop cl ~rate:5_000. ~ops:200 ~next in
        check_int "ops" 200 r.Loadgen.lg_ops;
        check_int "requests include RMW legs" 250 r.Loadgen.lg_requests;
        check_int "no failures" 0 r.Loadgen.lg_failed;
        check_int "one latency sample per op" 200
          (Histogram.count r.Loadgen.lg_hist);
        check_bool "target recorded" true (r.Loadgen.lg_target = 5_000.);
        let c = Loadgen.closed_loop cl ~window:16 ~ops:150 ~next in
        check_int "closed ops" 150 c.Loadgen.lg_ops;
        check_bool "closed loop has no target" true (c.Loadgen.lg_target = 0.);
        check_bool "achieved positive" true (c.Loadgen.lg_achieved > 0.)))

let test_ycsb_generator () =
  (* deterministic under a seed *)
  let ops_of letter =
    let y = Ycsb.create ~letter ~seed:42 ~universe:100 () in
    Array.init 2_000 (fun _ -> Ycsb.next y)
  in
  check_bool "deterministic replay" true (ops_of Ycsb.A = ops_of Ycsb.A);
  (* mixes land near their nominal ratios *)
  let frac pred ops =
    float_of_int (Array.length (Array.of_list (List.filter pred (Array.to_list ops))))
    /. float_of_int (Array.length ops)
  in
  let is_read = function Ycsb.Read _ -> true | _ -> false in
  let near what lo hi v =
    check_bool (Printf.sprintf "%s in [%.2f, %.2f] (got %.3f)" what lo hi v)
      true
      (v >= lo && v <= hi)
  in
  near "A reads ~50%" 0.4 0.6 (frac is_read (ops_of Ycsb.A));
  near "B reads ~95%" 0.9 1.0 (frac is_read (ops_of Ycsb.B));
  check_bool "C all reads" true (Array.for_all is_read (ops_of Ycsb.C));
  near "E scans ~95%" 0.9 1.0
    (frac (function Ycsb.Scan _ -> true | _ -> false) (ops_of Ycsb.E));
  near "F rmw ~50%" 0.4 0.6
    (frac (function Ycsb.Rmw _ -> true | _ -> false) (ops_of Ycsb.F));
  (* D: inserts extend the key space, reads stay in bounds and skew
     toward the newest indices *)
  let y = Ycsb.create ~letter:Ycsb.D ~seed:7 ~universe:100 () in
  let high = ref 0 and reads = ref 0 in
  for _ = 1 to 2_000 do
    match Ycsb.next y with
    | Ycsb.Insert i -> check_int "insert is the next fresh index" i (Ycsb.loaded y - 1)
    | Ycsb.Read i ->
      incr reads;
      check_bool "read in bounds" true (i >= 0 && i < Ycsb.loaded y);
      if i > Ycsb.loaded y / 2 then incr high
    | _ -> Alcotest.fail "unexpected op in D"
  done;
  check_bool "D skews to the newest half" true
    (float_of_int !high /. float_of_int !reads > 0.8);
  check_bool "D grew the key space" true (Ycsb.loaded y > 100)

(* --- satellites: histogram / json ------------------------------------- *)

let test_empty_histogram_defined () =
  let h = Histogram.create () in
  check_int "empty p50" 0 (Histogram.p50 h);
  check_int "empty p99" 0 (Histogram.p99 h);
  check_int "empty p999" 0 (Histogram.p999 h);
  check_int "empty percentile 100" 0 (Histogram.percentile h 100.);
  check_bool "empty mean" true (Histogram.mean h = 0.);
  check_int "empty count" 0 (Histogram.count h);
  check_int "empty max" 0 (Histogram.max_value h);
  (* p999 orders sanely on a real recorder *)
  let h = Histogram.create () in
  for v = 1 to 1_000 do
    Histogram.add h v
  done;
  check_bool "p999 >= p99" true (Histogram.p999 h >= Histogram.p99 h);
  check_bool "p999 <= max" true (Histogram.p999 h <= Histogram.max_value h)

let test_json_write_atomic () =
  let dir = Filename.get_temp_dir_name () in
  let path =
    Filename.concat dir (Printf.sprintf "spp-test-json-%d.json" (Unix.getpid ()))
  in
  let j = Json_out.create () in
  Json_out.emit j ~experiment:"x" ~name:"n" ~metric:"m" 1.0;
  Json_out.write j path;
  check_bool "file exists" true (Sys.file_exists path);
  check_bool "no temp residue" false (Sys.file_exists (path ^ ".tmp"));
  (* the write is total: the file parses and ends in a newline *)
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  check_bool "complete document" true
    (String.length s > 0 && s.[String.length s - 1] = '\n');
  check_bool "parses as the emitted record" true
    (let expected =
       Json_out.to_string
         (Json_out.J_obj
            [ ("experiment", Json_out.J_string "x");
              ("name", Json_out.J_string "n");
              ("metric", Json_out.J_string "m");
              ("value", Json_out.J_float 1.0) ])
     in
     (* substring check keeps this independent of the meta fields *)
     let rec contains i =
       if i + String.length expected > String.length s then false
       else if String.sub s i (String.length expected) = expected then true
       else contains (i + 1)
     in
     contains 0);
  Sys.remove path

let () =
  let qt t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "spp_net"
    [
      ( "codec",
        [
          qt qcheck_request_round_trip;
          qt qcheck_request_torn;
          qt qcheck_reply_round_trip;
          qt qcheck_reply_torn;
          Alcotest.test_case "torn frames resume at every byte" `Quick
            test_torn_frame_resume;
          Alcotest.test_case "malformed frames are Corrupt" `Quick
            test_malformed_frames;
          Alcotest.test_case "hostile scan count rejected" `Quick
            test_scanned_hostile_count;
          Alcotest.test_case "oversize key rejected, message truncated"
            `Quick test_encode_rejects_oversize_key;
        ] );
      ( "server",
        [
          Alcotest.test_case "end to end over unix socket" `Quick
            test_end_to_end_unix;
          Alcotest.test_case "end to end over tcp loopback" `Quick
            test_end_to_end_tcp;
          Alcotest.test_case "pipelined out-of-order completion" `Quick
            test_pipelined_futures;
          Alcotest.test_case "malformed frame kills connection, not server"
            `Quick test_malformed_kills_connection_not_server;
          Alcotest.test_case "dead server fails typed, never hangs" `Quick
            test_dead_server_fails_typed;
          Alcotest.test_case "parse_addr" `Quick test_parse_addr;
          Alcotest.test_case "150 connections, more than the domain cap"
            `Quick test_more_connections_than_domains;
          Alcotest.test_case "unwatchable descriptor closed, others served"
            `Quick test_unwatchable_descriptor_closed;
          Alcotest.test_case "stalled reader does not stall other clients"
            `Quick test_stalled_reader_does_not_stall_others;
          Alcotest.test_case "replies counted as written, mid-stream"
            `Quick test_replies_counted_as_written;
          Alcotest.test_case "scan sees pipelined writes before it only"
            `Quick test_scan_sees_writes_before_it_only;
          Alcotest.test_case "vanished peer dropped, others served" `Quick
            test_vanished_peer_dropped;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "open/closed loop accounting" `Quick
            test_loadgen_accounting;
          Alcotest.test_case "ycsb workload letters" `Quick
            test_ycsb_generator;
        ] );
      ( "satellites",
        [
          Alcotest.test_case "empty histogram is defined" `Quick
            test_empty_histogram_defined;
          Alcotest.test_case "json write is atomic" `Quick
            test_json_write_atomic;
        ] );
    ]
