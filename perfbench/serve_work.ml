(* The serve workload: the shipped [legalize_cli serve] runs as a child
   process on a Unix socket with a write-ahead log and periodic
   snapshots. Two connections each hold one resident Table-1 design
   of about 2k cells and run a closed loop with one request in flight
   (ECO tools wait for each reply). The seeded trace is about 90%
   single-cell [eco] and 10% [query]. Half of the ecos also move the
   cell's GP anchor onto the anchor of a cell it shares a net with,
   when one of its fence region is movable: an ECO pulling the cell
   toward its logic.

   The traced run repeats the socket session, then replays the same
   request lines in-process through the public layer functions
   ([Protocol.parse], [Engine.execute], [Wal.append_all],
   [Snapshot.write], [Protocol.to_line]) on two replicas in lockstep,
   one of them under spans. *)

open Mcl_netlist
module Json = Mcl_service.Json
module Protocol = Mcl_service.Protocol
module Engine = Mcl_service.Engine
module Cache = Mcl_service.Cache
module Wal = Mcl_resilience.Wal
module Prng = Mcl_geom.Prng

let designs = [ ("a", "des_perf_b_md2"); ("b", "edit_dist_1_md1") ]
let scale = 0.45
let snapshot_every = 256
let setup_reps = 3
let query_share = 0.1

(* Request index (per connection) answered by a fixed query: its score
   and displacement are the run's quality figures, so they depend on
   the seed alone, not on how many requests the time allowed. *)
let checkpoint = 400

let file key = key ^ ".mcl"

(* The designs are the suite's own, whatever the seed: the seed drives
   the trace only. With seeded GP jitter as well, some seeds left the
   service a quarter slower for the whole run (eco cost depends on the
   placement the trace builds up), wider than any bound could hold. *)
let prepare ~dir =
  let specs = Mcl_gen.Suites.iccad2017 ~scale () in
  List.iter
    (fun (key, name) ->
       let spec = List.find (fun (s : Mcl_gen.Spec.t) -> s.Mcl_gen.Spec.name = name) specs in
       Mcl_bookshelf.Writer.write_file (Filename.concat dir (file key))
         (Mcl_gen.Generator.generate spec))
    designs

(* ---- client side ---- *)

type conn = {
  key : string;
  fd : Unix.file_descr;
  pending : Buffer.t;  (** bytes read past the last complete line *)
  rng : Prng.t;
  design : Design.t;  (** the loaded file, for cell ids and anchors *)
  movable : int array;
  peers : int array array;
      (** per cell: the movable cells of its fence region it shares a net with *)
  mutable sent : int;
  mutable sent_at : float;
  mutable inflight : bool;
  mutable is_query : bool;
  mutable trace : string list;  (** measured-phase request lines, newest first *)
}

let connect ~seed key =
  let design =
    match Mcl_bookshelf.Parser.parse_file (file key) with Ok d -> d | Error e -> failwith e
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let t_give_up = Unix.gettimeofday () +. 60.0 in
  let rec go () =
    match Unix.connect fd (Unix.ADDR_UNIX "s.sock") with
    | () -> ()
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Unix.gettimeofday () < t_give_up ->
      Unix.sleepf 0.002;
      go ()
  in
  go ();
  let cells = design.Design.cells in
  let peers = Array.make (Array.length cells) [] in
  Array.iter
    (fun (net : Net.t) ->
       let ids =
         List.filter_map
           (function Net.Cell_pin { cell; _ } -> Some cell | Net.Fixed_pin _ -> None)
           net.Net.endpoints
       in
       List.iter
         (fun a ->
            List.iter
              (fun b ->
                 let ca = cells.(a) and cb = cells.(b) in
                 if a <> b && (not cb.Cell.is_fixed) && ca.Cell.region = cb.Cell.region then
                   peers.(a) <- b :: peers.(a))
              ids)
         ids)
    design.Design.nets;
  { key; fd; pending = Buffer.create 4096;
    rng = Prng.create ((seed * 7919) + Char.code key.[0]);
    design;
    movable =
      Array.of_list
        (List.filter_map (fun (c : Cell.t) -> if c.is_fixed then None else Some c.id)
           (Array.to_list cells));
    peers = Array.map (fun l -> Array.of_list (List.sort_uniq compare l)) peers;
    sent = 0; sent_at = 0.0; inflight = false; is_query = false; trace = [] }

let send (r : Outcome.t) c line =
  r.Outcome.attempted <- r.Outcome.attempted + 1;
  let s = line ^ "\n" in
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring c.fd s off (n - off)) in
  c.sent_at <- Unix.gettimeofday ();
  c.inflight <- true;
  go 0

(* Complete lines available after one read; raises at EOF. *)
let read_lines c =
  let buf = Bytes.create 65536 in
  let n = Unix.read c.fd buf 0 (Bytes.length buf) in
  if n = 0 then failwith ("server closed connection " ^ c.key);
  Buffer.add_subbytes c.pending buf 0 n;
  let s = Buffer.contents c.pending in
  match String.rindex_opt s '\n' with
  | None -> []
  | Some i ->
    Buffer.clear c.pending;
    Buffer.add_string c.pending (String.sub s (i + 1) (String.length s - i - 1));
    String.split_on_char '\n' (String.sub s 0 i)

let rec await c = match read_lines c with [] -> await c | l :: _ -> c.inflight <- false; l

let parse_response (r : Outcome.t) line =
  match Json.parse line with
  | Ok j when Json.get_string "status" j = Some "ok" -> Some j
  | _ ->
    r.Outcome.failed <- r.Outcome.failed + 1;
    prerr_endline ("request failed: " ^ line);
    None

let rpc r c line = parse_response r (send r c line; await c)

(* The next request of a connection's seeded trace. *)
let next_request c =
  c.sent <- c.sent + 1;
  let id = Printf.sprintf "%s-%d" c.key c.sent in
  if c.sent = checkpoint || Prng.float c.rng 1.0 < query_share then begin
    c.is_query <- true;
    Printf.sprintf {|{"id":"%s","op":"query","design":"%s"}|} id c.key
  end
  else begin
    c.is_query <- false;
    let cell = c.design.Design.cells.(Prng.choose c.rng c.movable) in
    let targets =
      let peers = c.peers.(cell.Cell.id) in
      if Prng.bool c.rng && peers <> [||] then begin
        let peer = c.design.Design.cells.(Prng.choose c.rng peers) in
        let fp = c.design.Design.floorplan in
        let w = Design.width c.design cell and h = Design.height c.design cell in
        let x = min peer.Cell.gp_x (fp.Floorplan.num_sites - w) in
        let y = min peer.Cell.gp_y (fp.Floorplan.num_rows - h) in
        Printf.sprintf {|,"targets":[[%d,[%d,%d]]]|} cell.Cell.id x y
      end
      else ""
    in
    Printf.sprintf {|{"id":"%s","op":"eco","design":"%s","cells":[%d]%s}|} id c.key cell.Cell.id
      targets
  end

let setup_lines key =
  [ Printf.sprintf {|{"id":"%s-load","op":"load","design":"%s","path":"%s"}|} key key (file key);
    Printf.sprintf {|{"id":"%s-legalize","op":"legalize","design":"%s"}|} key key ]

let clean () =
  List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ "s.sock"; "j.wal"; "j.wal.snap" ]

(* Start the server and bring both designs up (loaded and legalized);
   returns the child pid, the connections and the set-up time. *)
let start r ~seed ~cli =
  clean ();
  let t0 = Unix.gettimeofday () in
  let log = Unix.openfile "server.log" [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process cli
      [| cli; "serve"; "--socket"; "s.sock"; "--wal"; "j.wal"; "--snapshot-every";
         string_of_int snapshot_every |]
      null log log
  in
  Unix.close log;
  Unix.close null;
  let conns = List.map (fun (key, _) -> connect ~seed key) designs in
  List.iter
    (fun i ->
       List.iter (fun c -> send r c (List.nth (setup_lines c.key) i)) conns;
       List.iter (fun c -> ignore (parse_response r (await c))) conns)
    [ 0; 1 ];
  (pid, conns, Unix.gettimeofday () -. t0)

let stop r pid conns =
  ignore (rpc r (List.hd conns) {|{"id":"bye","op":"shutdown"}|});
  List.iter (fun c -> Unix.close c.fd) conns;
  ignore (Unix.waitpid [] pid)

type reply = {
  r_query : bool;
  r_index : int;  (** the request's index in its connection's trace *)
  at : float;  (** reply time, seconds into the measured phase *)
  latency : float;
  line : string;
}

(* The measured phase: both connections in closed loops until the
   deadline; every reply is kept for later parsing. *)
let closed_loop r conns ~seconds =
  let replies = ref [] in
  let t0 = Unix.gettimeofday () in
  let t_end = t0 +. seconds in
  let issue c =
    let line = next_request c in
    c.trace <- line :: c.trace;
    send r c line
  in
  List.iter issue conns;
  let rec loop () =
    let live = List.filter (fun c -> c.inflight) conns in
    if live <> [] then begin
      let ready, _, _ = Unix.select (List.map (fun c -> c.fd) live) [] [] 1.0 in
      List.iter
        (fun c ->
           if List.mem c.fd ready then
             match read_lines c with
             | [] -> ()
             | line :: _ ->
               let now = Unix.gettimeofday () in
               replies :=
                 { r_query = c.is_query; r_index = c.sent; at = now -. t0;
                   latency = now -. c.sent_at; line }
                 :: !replies;
               c.inflight <- false;
               if now < t_end || c.sent < checkpoint then issue c)
        live;
      loop ()
    end
  in
  loop ();
  List.rev !replies

let num j name = Option.value (Json.get_float name j) ~default:0.0

(* Journal recovery into a fresh engine: the recovered designs must
   pass the independent checker and score exactly as the live
   server's final queries did. *)
let check_recovery r finals =
  let engine = Engine.create ~config:Mcl.Config.default () in
  (match Mcl_service.Server.recover engine ~path:"j.wal" with
   | rc ->
     if rc.Mcl_service.Server.failed > 0 then
       Outcome.problem r "recovery: %d records failed to re-apply" rc.Mcl_service.Server.failed
   | exception Mcl_service.Server.Corrupt_state { code; message; _ } ->
     Outcome.problem r "recovery refused: %s %s" code message);
  List.iter
    (fun (key, live_score) ->
       match Cache.find (Engine.cache engine) key with
       | None -> Outcome.problem r "recovery lost design %s" key
       | Some e ->
         (match Checker.violations e.Cache.design with
          | [] -> ()
          | v :: _ -> Outcome.problem r "recovered %s is illegal: %s" key v);
         let s = (Mcl_eval.Score.evaluate ~gp_hpwl:e.Cache.gp_hpwl e.Cache.design).score in
         if s <> live_score then
           Outcome.problem r "recovered %s scores %.17g, live server %.17g" key s live_score)
    finals

(* One whole server session: set-up ([reps] times, keeping the last
   server), the measured phase, final queries, stats and shutdown. *)
let session r ~seed ~cli ~seconds ~reps =
  let rec boot i acc =
    let pid, conns, t = start r ~seed ~cli in
    if i + 1 < reps then begin
      stop r pid conns;
      boot (i + 1) (t :: acc)
    end
    else (pid, conns, t :: acc)
  in
  let pid, conns, setups = boot 0 [] in
  match
    let replies = closed_loop r conns ~seconds in
    let rss = Spans.peak_rss_mb (string_of_int pid) in
    let finals =
      List.map
        (fun c ->
           match rpc r c (Printf.sprintf {|{"id":"final","op":"query","design":"%s"}|} c.key) with
           | Some j ->
             let res = Option.get (Json.member "result" j) in
             (c.key, num res "score", num res "max_disp_rows")
           | None -> (c.key, nan, nan))
        conns
    in
    let stats =
      Option.bind (rpc r (List.hd conns) {|{"id":"stats","op":"stats"}|}) (fun j ->
          Option.bind (Json.member "result" j) (Json.member "counters"))
    in
    (replies, rss, finals, stats)
  with
  | result ->
    let traces = List.map (fun c -> List.rev c.trace) conns in
    stop r pid conns;
    (setups, result, traces)
  | exception e ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    raise e

(* The successful replies with their parsed response objects. *)
let parsed r replies =
  List.filter_map (fun rp -> Option.map (fun j -> (rp, j)) (parse_response r rp.line)) replies

let field sect name j = Option.fold ~none:0.0 ~some:(fun m -> num m name) (Json.member sect j)

(* ---- in-process replay (traced run) ---- *)

(* One in-process copy of the server state: an engine and its journal. *)
type replica = { engine : Engine.t; wal : Wal.t; wal_path : string; mutable journaled : int;
                 mutable bytes : int }

let replica wal_path =
  List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ wal_path; wal_path ^ ".snap" ];
  { engine = Engine.create ~config:Mcl.Config.default (); wal = Wal.open_ ~path:wal_path ();
    wal_path; journaled = 0; bytes = 0 }

(* One request through the layers the server runs it through, in its
   order: decode, execute, journal (with a snapshot every
   [snapshot_every] records), encode. *)
let step r sp rp line =
  let span name f = Spans.span sp name f in
  let req =
    match span "decode" (fun () ->
        Protocol.parse ~received:(Unix.gettimeofday ()) ~default_id:"replay" line) with
    | Ok q -> q
    | Error e -> failwith e.Protocol.message
  in
  let is_query = match req.Protocol.op with Protocol.Query _ -> true | _ -> false in
  let resp =
    span (if is_query then "engine.query" else "engine.eco") (fun () ->
        (Engine.execute rp.engine [| req |]).(0))
  in
  (match resp.Protocol.result with
   | Ok _ -> ()
   | Error e -> Outcome.problem r "replay: %s answered %s" req.Protocol.id e.Protocol.code);
  (match resp.Protocol.wal with
   | None -> ()
   | Some w ->
     let before = (Unix.stat rp.wal_path).Unix.st_size in
     ignore (span "wal.append" (fun () -> Wal.append_all rp.wal [ w ]));
     rp.bytes <- rp.bytes + (Unix.stat rp.wal_path).Unix.st_size - before;
     rp.journaled <- rp.journaled + 1;
     if rp.journaled mod snapshot_every = 0 then
       span "snapshot" (fun () ->
           Mcl_service.Snapshot.write ~cache:(Engine.cache rp.engine)
             ~upto_seq:(Wal.last_seq rp.wal) ~path:(Mcl_service.Snapshot.path_for rp.wal_path);
           ignore (Wal.truncate rp.wal)));
  ignore (span "encode" (fun () -> Protocol.to_line resp));
  match req.Protocol.op with Protocol.Query { key } -> Some key | _ -> None

(* The parts of a query, on the resident design. *)
let query_parts sp rp key =
  let e = Option.get (Cache.find (Engine.cache rp.engine) key) in
  let d = e.Cache.design in
  ignore (Spans.span sp "query.legality" (fun () -> Mcl_eval.Legality.check d));
  ignore (Spans.span sp "query.score" (fun () -> Mcl_eval.Score.evaluate ~gp_hpwl:e.Cache.gp_hpwl d));
  Option.iter
    (fun m -> ignore (Spans.span sp "query.congest" (fun () -> Mcl_congest.Congestion.summarize m)))
    e.Cache.congest;
  ignore
    (Spans.span sp "query.windows" (fun () ->
         Mcl_eval.Windows.worst_cells ~k:4 ~halfwidth:Mcl_exact.Refine.default_halfwidth
           ~halfheight:Mcl_exact.Refine.default_halfheight d))

type replayed = {
  finals : (string * float) list;  (** score per design at the end *)
  plain_s : float;  (** request time without spans *)
  traced_s : float;  (** the same requests under spans *)
  bytes_per_record : float;
  minor_words : float;  (** allocated by the traced requests *)
  major : int;
}

(* Replay the recorded request lines on two replicas in lockstep, one
   plain and one under spans, alternating which goes first, so the
   pair is measured at the same moment on the host. Lines are taken
   round-robin over the connections, as the event loop would. *)
let replay r sp traces =
  let quiet = Spans.create ~enabled:false in
  let plain = replica "plain.wal" and traced = replica "traced.wal" in
  List.iter
    (fun (key, _) ->
       List.iter (fun l -> ignore (step r quiet plain l); ignore (step r quiet traced l))
         (setup_lines key))
    designs;
  let plain_s = ref 0.0 and traced_s = ref 0.0 and minor = ref 0.0 and major = ref 0 in
  let run_plain line = plain_s := !plain_s +. snd (Batch_work.timed (fun () -> step r quiet plain line)) in
  let run_traced line =
    let g0 = Gc.quick_stat () in
    let key, t = Batch_work.timed (fun () -> step r sp traced line) in
    let g1 = Gc.quick_stat () in
    traced_s := !traced_s +. t;
    minor := !minor +. g1.Gc.minor_words -. g0.Gc.minor_words;
    major := !major + g1.Gc.major_collections - g0.Gc.major_collections;
    Option.iter (query_parts sp traced) key
  in
  let rec interleave i = function
    | [] -> ()
    | queues ->
      List.iteri
        (fun k line ->
           if (i + k) mod 2 = 0 then (run_plain line; run_traced line)
           else (run_traced line; run_plain line))
        (List.filter_map (function l :: _ -> Some l | [] -> None) queues);
      interleave (i + 1) (List.filter (( <> ) []) (List.map (function _ :: t -> t | [] -> []) queues))
  in
  interleave 0 traces;
  List.iter (fun rp -> Wal.close rp.wal) [ plain; traced ];
  { finals =
      List.map
        (fun (key, _) ->
           let e = Option.get (Cache.find (Engine.cache traced.engine) key) in
           (key, (Mcl_eval.Score.evaluate ~gp_hpwl:e.Cache.gp_hpwl e.Cache.design).score))
        designs;
    plain_s = !plain_s; traced_s = !traced_s;
    bytes_per_record = float_of_int traced.bytes /. float_of_int (max 1 traced.journaled);
    minor_words = !minor; major = !major }

let run r ~seed ~dir ~cli ~seconds ~trace ~spans_out =
  Sys.chdir dir;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let setups, (replies, rss, finals, stats), traces =
    session r ~seed ~cli ~seconds ~reps:(if trace then 1 else setup_reps)
  in
  check_recovery r (List.map (fun (k, s, _) -> (k, s)) finals);
  let ok = parsed r replies in
  let ecos = List.filter (fun (rp, _) -> not rp.r_query) ok in
  let queries = List.filter (fun (rp, _) -> rp.r_query) ok in
  let ms l = List.map (fun (rp, _) -> rp.latency *. 1e3) l in
  List.iter
    (fun (what, l) ->
       Printf.eprintf "%s latency ms (%d): mean=%.2f %s\n%!" what (List.length l)
         (Spans.mean (ms l))
         (String.concat " "
            (List.map (fun q -> Printf.sprintf "p%g=%.2f" (q *. 100.) (Spans.quantile q (ms l)))
               [ 0.5; 0.75; 0.9; 0.95; 0.99 ])))
    [ ("eco", ecos); ("query", queries) ];
  (* The measured phase runs from the first request to the last reply. *)
  let phase_s = List.fold_left (fun t rp -> Float.max t rp.at) 0.0 replies in
  if not trace then begin
    Outcome.set r "setup_s" (Spans.median setups);
    Outcome.set r "cells_per_s"
      (Batch_work.sum (fun (_, j) -> field "metrics" "cells_touched" j) ecos /. phase_s);
    Outcome.set r "muts_per_s" (float_of_int (List.length ecos) /. phase_s);
    let marks = List.filter (fun (rp, _) -> rp.r_query && rp.r_index = checkpoint) ok in
    if List.length marks <> List.length designs then
      Outcome.problem r "%d checkpoint queries answered" (List.length marks);
    let per_design f = Batch_work.sum (fun (_, j) -> f (field "result" "score" j, field "result" "max_disp_rows" j)) marks
                       /. float_of_int (List.length marks) in
    Outcome.set r "score_eq10" (exp (per_design (fun (s, _) -> log s)));
    Outcome.set r "max_disp_rows" (per_design snd);
    Outcome.set r "peak_rss_mb" rss;
    Outcome.set r "mut_p50_ms" (Spans.median (ms ecos));
    Outcome.set r "mut_p90_ms" (Spans.quantile 0.9 (ms ecos));
    Outcome.set r "query_p50_ms" (Spans.median (ms queries))
  end
  else begin
    let mean_of name l = Spans.mean (List.map (fun (_, j) -> field "metrics" name j) l) in
    Outcome.set r "loop.queue_wait_ms" (1e3 *. mean_of "queue_wait_s" ok);
    Outcome.set r "eco.cuts_evaluated" (mean_of "cuts_evaluated" ecos);
    Outcome.set r "eco.cells_touched" (mean_of "cells_touched" ecos);
    let counter name =
      match stats with
      | Some c -> Option.value (Json.get_float name c) ~default:nan
      | None -> nan
    in
    Outcome.set r "wal.fsyncs" (counter "wal_fsyncs" /. counter "wal_appends");
    let sp = Spans.create ~enabled:true in
    let rep = replay r sp traces in
    List.iter2
      (fun (k, live, _) (_, s) ->
         if s <> live then
           Outcome.problem r "in-process replay of %s scores %.17g, live server %.17g" k s live)
      finals rep.finals;
    let tot = Spans.totals sp in
    let per_call name =
      let c, _, s = Spans.lookup tot name in
      if c = 0 then 0.0 else s /. float_of_int c
    in
    let self name = let _, _, s = Spans.lookup tot name in s in
    Outcome.set r "decode.us" (per_call "decode" *. 1e6);
    Outcome.set r "encode.us" (per_call "encode" *. 1e6);
    Outcome.set r "engine.eco_ms" (per_call "engine.eco" *. 1e3);
    Outcome.set r "engine.query_ms" (per_call "engine.query" *. 1e3);
    Outcome.set r "wal.append_us" (per_call "wal.append" *. 1e6);
    Outcome.set r "wal.bytes" rep.bytes_per_record;
    Outcome.set r "snapshot.ms" (per_call "snapshot" *. 1e3);
    List.iter
      (fun q -> Outcome.set r ("query." ^ q ^ "_ms") (per_call ("query." ^ q) *. 1e3))
      [ "legality"; "score"; "congest"; "windows" ];
    Outcome.set r "gc.minor_mwords" (rep.minor_words /. 1e6);
    Outcome.set r "gc.major_collections" (float_of_int rep.major);
    let path = [ "decode"; "engine.eco"; "engine.query"; "wal.append"; "snapshot"; "encode" ] in
    Outcome.set r "trace.coverage" (List.fold_left (fun a l -> a +. self l) 0.0 path /. rep.plain_s);
    Outcome.set r "trace.overhead" ((rep.traced_s /. rep.plain_s) -. 1.0);
    Spans.write sp spans_out
  end
