(* Chrome trace-event JSON ("JSON Array Format" with legacy flow
   events), loadable in chrome://tracing and https://ui.perfetto.dev.

   Track layout: one pid per PE (plus one pid for the NoC), a tid per
   VPE (syscall/pipe slices), per DTU endpoint (send/receive markers)
   and per m3fs session, and a tid per directed NoC link. DTU message
   ids become flow arrows send -> NoC transfer -> receive. Several
   simulations can share one exporter (the harness boots a fresh
   system per benchmark); [begin_run] opens a new pid namespace. *)

let noc_node = 999 (* pid slot of the NoC pseudo-process within a run *)
let tid_core = 99
let tid_ep_base = 100
let tid_mem = 150
let tid_sess_base = 200

type t = {
  buf : Buffer.t;
  mutable first : bool;
  mutable run_base : int;
  mutable runs : int;
  named : (int * int, unit) Hashtbl.t; (* (pid, tid) with metadata out *)
  named_pids : (int, unit) Hashtbl.t;
}

let create () =
  {
    buf = Buffer.create 65536;
    first = true;
    run_base = 0;
    runs = 0;
    named = Hashtbl.create 64;
    named_pids = Hashtbl.create 16;
  }

(* Trace events are written member by member straight into the
   buffer: a traced sweep emits millions of them. *)
let add_escaped b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

(* [open_event t ph] starts one ["{"ph":ph"] object; members follow via
   [str]/[int] and [close_event] ends it. *)
let open_event t ph =
  if t.first then t.first <- false else Buffer.add_char t.buf ',';
  Buffer.add_string t.buf "{\"ph\":\"";
  Buffer.add_string t.buf ph;
  Buffer.add_char t.buf '"'

let close_event t = Buffer.add_string t.buf "}\n"

let key t k =
  Buffer.add_string t.buf ",\"";
  Buffer.add_string t.buf k;
  Buffer.add_string t.buf "\":"

let str t k v =
  key t k;
  Buffer.add_char t.buf '"';
  add_escaped t.buf v;
  Buffer.add_char t.buf '"'

(* Non-negative numbers skip [string_of_int], which goes through the C
   formatter: most of an event's cost. *)
let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

let add_int b n =
  if n >= 0 then add_digits b n else Buffer.add_string b (string_of_int n)

let int t k v =
  key t k;
  add_int t.buf v

let meta t ~pid ~tid ~which ~name =
  open_event t "M";
  str t "name" which;
  int t "pid" pid;
  int t "tid" tid;
  key t "args";
  Buffer.add_string t.buf "{\"name\":\"";
  add_escaped t.buf name;
  Buffer.add_string t.buf "\"}";
  close_event t

(* The pid of this run's PE or NoC [slot], named [run<N>/<label>] on
   first use. *)
let process t slot label =
  let pid = t.run_base + slot in
  if not (Hashtbl.mem t.named_pids pid) then begin
    Hashtbl.add t.named_pids pid ();
    meta t ~pid ~tid:0 ~which:"process_name"
      ~name:(Printf.sprintf "run%d/%s" (t.run_base / 1000) (label ()))
  end;
  pid

let pe_pid t pe = process t pe (fun () -> "pe" ^ string_of_int pe)
let noc_pid t = process t noc_node (fun () -> "noc")

let thread t pid tid ~name =
  if not (Hashtbl.mem t.named (pid, tid)) then begin
    Hashtbl.add t.named (pid, tid) ();
    meta t ~pid ~tid ~which:"thread_name" ~name:(name ())
  end;
  (pid, tid)

let begin_run t =
  t.run_base <- t.runs * 1000;
  t.runs <- t.runs + 1

let flow_id t msg = (t.run_base * 1_000_000) + msg

(* Only the plain-number fields travel as [args]; ids are on the
   track, names in the title and times in the slice. *)
let args t fields =
  let first = ref true in
  let arg k n =
    if !first then begin
      key t "args";
      Buffer.add_string t.buf "{\"";
      first := false
    end
    else Buffer.add_string t.buf ",\"";
    Buffer.add_string t.buf k;
    Buffer.add_string t.buf "\":";
    add_int t.buf n
  in
  List.iter
    (fun (k, v) ->
      match v with
      | Event.Int n | Event.Sum n | Event.Hist n -> arg k n
      | Event.Flag b -> arg k (Bool.to_int b)
      | Event.Id _ | Event.Text _ | Event.Time _ -> ())
    fields;
  if not !first then Buffer.add_char t.buf '}'

(* Resolves a track to its (pid, tid), naming both on first use. *)
let locate t = function
  | Event.Vpe (pe, vpe) ->
    thread t (pe_pid t pe) vpe ~name:(fun () -> Printf.sprintf "vpe%d" vpe)
  | Event.Ep (pe, ep) ->
    thread t (pe_pid t pe) (tid_ep_base + ep) ~name:(fun () ->
        Printf.sprintf "ep%d" ep)
  | Event.Mem pe -> thread t (pe_pid t pe) tid_mem ~name:(fun () -> "dtu.mem")
  | Event.Session (pe, s) ->
    thread t (pe_pid t pe) (tid_sess_base + s) ~name:(fun () ->
        Printf.sprintf "fs.sess%d" s)
  | Event.Core pe -> thread t (pe_pid t pe) tid_core ~name:(fun () -> "core")
  | Event.Pe pe -> (pe_pid t pe, 0)
  | Event.Xfer (src, dst) ->
    thread t (noc_pid t) ((src * 100) + dst) ~name:(fun () ->
        Printf.sprintf "xfer %d>%d" src dst)
  | Event.Link (src, dst) ->
    thread t (noc_pid t)
      (10000 + (src * 100) + dst)
      ~name:(fun () -> Printf.sprintf "link %d>%d" src dst)

(* An instant becomes a one-cycle slice rather than an instant event,
   so flow arrows have something to bind to in Perfetto's legacy-JSON
   importer. *)
let record t ~at ev =
  let d = Event.describe ev in
  match d.Event.track with
  | None -> ()
  | Some track ->
    let pid, tid = locate t track in
    let start, stop =
      match d.Event.span with
      | Event.Instant -> (at, at + 1)
      | Event.Ending n -> (at - n, at)
      | Event.Starting n -> (at, at + n)
      | Event.Window (a, b) -> (a, b)
    in
    open_event t "X";
    str t "name" d.Event.title;
    str t "cat" d.Event.cat;
    int t "ts" start;
    int t "dur" (max 1 (stop - start));
    int t "pid" pid;
    int t "tid" tid;
    args t d.Event.fields;
    close_event t;
    let flow ph ~ts msg =
      if msg <> 0 then begin
        open_event t ph;
        str t "name" "msg";
        str t "cat" "dtu";
        int t "ts" ts;
        int t "pid" pid;
        int t "tid" tid;
        int t "id" (flow_id t msg);
        (* A flow end binds to its enclosing slice. *)
        if ph = "f" then str t "bp" "e";
        close_event t
      end
    in
    match d.Event.flow with
    | Event.No_flow -> ()
    | Event.Flow_start msg -> flow "s" ~ts:start msg
    | Event.Flow_step msg -> flow "t" ~ts:((start + stop) / 2) msg
    | Event.Flow_end msg -> flow "f" ~ts:start msg

let sink t =
  { Obs.sink_name = "chrome"; sink_emit = (fun ~at ev -> record t ~at ev) }

let prefix = "{\"traceEvents\":["
let suffix = "],\"displayTimeUnit\":\"ms\"}"
let to_string t = prefix ^ Buffer.contents t.buf ^ suffix

(* Streams the buffer: a traced sweep's document runs to 100+ MB, so
   it is never copied into one string. *)
let write_channel t oc =
  output_string oc prefix;
  Buffer.output_buffer oc t.buf;
  output_string oc suffix

let write_file t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write_channel t oc)
