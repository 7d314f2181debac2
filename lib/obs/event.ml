type t =
  | Dtu_send of {
      pe : int;
      ep : int;
      dst_pe : int;
      dst_ep : int;
      bytes : int;
      msg : int;
      reply : bool;
    }
  | Dtu_receive of { pe : int; ep : int; src_pe : int; bytes : int; msg : int }
  | Dtu_drop of { pe : int; ep : int; src_pe : int; msg : int; reason : string }
  | Dtu_read of { pe : int; mem_pe : int; bytes : int; msg : int }
  | Dtu_write of { pe : int; mem_pe : int; bytes : int; msg : int }
  | Noc_xfer of {
      src : int;
      dst : int;
      bytes : int;
      depart : int;
      arrive : int;
      msg : int;
    }
  | Noc_link of {
      link_src : int;
      link_dst : int;
      enter : int;
      leave : int;
      queued : int;
      msg : int;
    }
  | Syscall_enter of { pe : int; vpe : int; op : string }
  | Syscall_exit of { pe : int; vpe : int; op : string; ok : bool; cycles : int }
  | Fs_request of { pe : int; session : int; op : string }
  | Fs_response of { pe : int; session : int; op : string; cycles : int }
  | Fs_shard of { pe : int; shard : int; srv : string }
  | Fs_queue of { pe : int; srv : string; depth : int }
  | Fs_cache_hit of { pe : int; kind : string }
  | Fs_cache_miss of { pe : int; kind : string }
  | Fs_cache_inval of { pe : int; kind : string }
  | Fs_cache_flush of { pe : int; gen : int; reason : string }
  | Fs_inval_send of { pe : int; srv : string; session : int; kind : string }
  | Vpe_create of { vpe : int; pe : int; name : string }
  | Vpe_start of { vpe : int; pe : int; name : string }
  | Vpe_exit of { vpe : int; pe : int; code : int }
  | Pipe_push of { vpe : int; pe : int; bytes : int }
  | Pipe_pop of { vpe : int; pe : int; bytes : int }
  | Pe_spawn of { pe : int; name : string }
  | Pe_halt of { pe : int }
  | Fault_drop of { src : int; dst : int; bytes : int; msg : int; reason : string }
  | Fault_corrupt of { src : int; dst : int; bytes : int; msg : int }
  | Fault_stall of { pe : int; cycles : int }
  | Dtu_nack of { pe : int; ep : int; dst_pe : int; msg : int; reason : string }
  | Dtu_retry of { pe : int; dst_pe : int; msg : int; attempt : int; backoff : int }
  | Fault_pe_crash of { pe : int }
  | Vpe_crash of { vpe : int; pe : int }
  | Vpe_abort of { vpe : int; pe : int; reason : string }
  | Vpe_restart of { vpe : int; pe : int; name : string; attempt : int }
  | Kernel_heartbeat of { pe : int; probed : int; dead : int }
  | Serve_admit of { pe : int; pool : string; seq : int; depth : int }
  | Serve_reject of { pe : int; pool : string; seq : int; depth : int }
  | Serve_batch of { pe : int; pool : string; worker : int; size : int }
  | Serve_done of { pe : int; pool : string; seq : int; cycles : int }
  | Serve_restart of { pe : int; pool : string; worker : int; attempt : int }
  | Vpe_suspend of { vpe : int; pe : int; bytes : int }
  | Vpe_resume of { vpe : int; pe : int; from_pe : int; cold : bool }
  | Sched_switch of { pe : int; out_vpe : int; in_vpe : int }
  | Pool_scale of { pe : int; pool : string; dir : int; active : int }
  | Gw_throttle of { pe : int; pool : string; client : int; seq : int }
  | Gw_break of { pe : int; pool : string; worker : int; phase : string }
  | Gw_upgrade of { pe : int; pool : string; target : string; cycles : int }
  | Kv_op of { pe : int; store : string; op : string; bucket : int; dup : bool }


type value =
  | Id of int
  | Int of int
  | Sum of int
  | Hist of int
  | Flag of bool
  | Text of string
  | Time of int

type track =
  | Vpe of int * int
  | Ep of int * int
  | Mem of int
  | Session of int * int
  | Core of int
  | Pe of int
  | Xfer of int * int
  | Link of int * int

type span = Instant | Ending of int | Starting of int | Window of int * int
type flow = No_flow | Flow_start of int | Flow_step of int | Flow_end of int
type label = Unlabelled | Key of string | Place of string

type desc = {
  name : string;
  cat : string;
  track : track option;
  title : string;
  span : span;
  flow : flow;
  label : label;
  fields : (string * value) list;
}

(* The common shape: a one-cycle marker without flow. *)
let mark name cat track title label fields =
  {
    name;
    cat;
    track = Some track;
    title;
    span = Instant;
    flow = No_flow;
    label;
    fields;
  }

let cache name pe kind =
  mark name "fs" (Pe pe) (name ^ ":" ^ kind) (Key kind)
    [ ("pe", Id pe); ("kind", Text kind) ]

let vpe_named name vpe pe prog =
  mark name "vpe" (Vpe (pe, vpe)) (name ^ ":" ^ prog) Unlabelled
    [ ("vpe", Id vpe); ("pe", Id pe); ("name", Text prog) ]

let pipe name vpe pe bytes =
  mark name "pipe" (Vpe (pe, vpe)) name Unlabelled
    [ ("vpe", Id vpe); ("pe", Id pe); ("bytes", Sum bytes) ]

(* Serving-pool and gateway events: a marker on the dispatcher's core
   titled [<name>:<pool>], one row per pool. *)
let serve name pe pool fields =
  mark name "serve" (Core pe) (name ^ ":" ^ pool) (Key pool)
    (("pe", Id pe) :: ("pool", Text pool) :: fields)

let dtu_mem name title pe mem_pe bytes msg =
  {
    (mark name "dtu" (Mem pe) title Unlabelled
       [ ("pe", Id pe); ("mem_pe", Int mem_pe); ("bytes", Sum bytes);
         ("msg", Int msg) ])
    with
    flow = Flow_start msg;
  }

let describe = function
  | Dtu_send { pe; ep; dst_pe; dst_ep; bytes; msg; reply } ->
    let name, title =
      if reply then ("dtu.reply", "reply") else ("dtu.send", "send")
    in
    {
      (mark name "dtu" (Ep (pe, ep)) title
         (Place ("pe" ^ string_of_int pe ^ ".ep" ^ string_of_int ep))
         [ ("pe", Id pe); ("ep", Id ep); ("dst_pe", Int dst_pe);
           ("dst_ep", Int dst_ep); ("bytes", Sum bytes); ("msg", Int msg) ])
      with
      flow = Flow_start msg;
    }
  | Dtu_receive { pe; ep; src_pe; bytes; msg } ->
    {
      (mark "dtu.receive" "dtu" (Ep (pe, ep)) "receive" Unlabelled
         [ ("pe", Id pe); ("ep", Id ep); ("src_pe", Int src_pe);
           ("bytes", Sum bytes); ("msg", Int msg) ])
      with
      flow = Flow_end msg;
    }
  | Dtu_drop { pe; ep; src_pe; msg; reason } ->
    mark "dtu.drop" "dtu" (Ep (pe, ep)) ("drop:" ^ reason) Unlabelled
      [ ("pe", Id pe); ("ep", Id ep); ("src_pe", Int src_pe); ("msg", Int msg);
        ("reason", Text reason) ]
  | Dtu_read { pe; mem_pe; bytes; msg } ->
    dtu_mem "dtu.read" "mem.read" pe mem_pe bytes msg
  | Dtu_write { pe; mem_pe; bytes; msg } ->
    dtu_mem "dtu.write" "mem.write" pe mem_pe bytes msg
  | Noc_xfer { src; dst; bytes; depart; arrive; msg } ->
    {
      (mark "noc.xfer" "noc" (Xfer (src, dst)) "xfer" Unlabelled
         [ ("src", Id src); ("dst", Id dst); ("bytes", Sum bytes);
           ("depart", Time depart); ("arrive", Time arrive); ("msg", Int msg) ])
      with
      span = Window (depart, arrive);
      flow = Flow_step msg;
    }
  | Noc_link { link_src; link_dst; enter; leave; queued; msg } ->
    {
      (mark "noc.link" "noc" (Link (link_src, link_dst)) "hop"
         (Place (string_of_int link_src ^ ">" ^ string_of_int link_dst))
         [ ("link_src", Id link_src); ("link_dst", Id link_dst);
           ("enter", Time enter); ("leave", Time leave);
           ("queued", Hist queued); ("msg", Int msg) ])
      with
      span = Window (enter, leave);
    }
  | Syscall_enter { pe; vpe; op } ->
    (* The exit event carries the slice. *)
    {
      (mark "syscall.enter" "syscall" (Vpe (pe, vpe)) op Unlabelled
         [ ("pe", Id pe); ("vpe", Id vpe); ("op", Text op) ])
      with
      track = None;
    }
  | Syscall_exit { pe; vpe; op; ok; cycles } ->
    {
      (mark "syscall.exit" "syscall" (Vpe (pe, vpe)) op (Key op)
         [ ("pe", Id pe); ("vpe", Id vpe); ("op", Text op); ("ok", Flag ok);
           ("cycles", Time cycles) ])
      with
      span = Ending cycles;
    }
  | Fs_request { pe; session; op } ->
    (* The response event carries the slice. *)
    {
      (mark "fs.request" "fs" (Session (pe, session)) op Unlabelled
         [ ("pe", Id pe); ("session", Id session); ("op", Text op) ])
      with
      track = None;
    }
  | Fs_response { pe; session; op; cycles } ->
    {
      (mark "fs.response" "fs" (Session (pe, session)) op (Key op)
         [ ("pe", Id pe); ("session", Id session); ("op", Text op);
           ("cycles", Time cycles) ])
      with
      span = Ending cycles;
    }
  | Fs_shard { pe; shard; srv } ->
    mark "fs.shard.resolve" "fs" (Pe pe) ("fs.shard:" ^ srv) (Key srv)
      [ ("pe", Id pe); ("shard", Int shard); ("srv", Text srv) ]
  | Fs_queue { pe; srv; depth } ->
    mark "fs.shard.queue" "fs" (Pe pe) ("fs.queue:" ^ srv) (Key srv)
      [ ("pe", Id pe); ("srv", Text srv); ("depth", Hist depth) ]
  | Fs_cache_hit { pe; kind } -> cache "fs.cache.hit" pe kind
  | Fs_cache_miss { pe; kind } -> cache "fs.cache.miss" pe kind
  | Fs_cache_inval { pe; kind } -> cache "fs.cache.inval" pe kind
  | Fs_cache_flush { pe; gen; reason } ->
    mark "fs.cache.flush" "fs" (Pe pe) ("fs.cache.flush:" ^ reason) Unlabelled
      [ ("pe", Id pe); ("gen", Int gen); ("reason", Text reason) ]
  | Fs_inval_send { pe; srv; session; kind } ->
    mark "fs.inval.send" "fs" (Session (pe, session))
      (Printf.sprintf "fs.inval:%s:%s" srv kind)
      (Key srv)
      [ ("pe", Id pe); ("srv", Text srv); ("session", Id session);
        ("kind", Text kind) ]
  | Vpe_create { vpe; pe; name } -> vpe_named "vpe.create" vpe pe name
  | Vpe_start { vpe; pe; name } -> vpe_named "vpe.start" vpe pe name
  | Vpe_exit { vpe; pe; code } ->
    mark "vpe.exit" "vpe" (Vpe (pe, vpe)) "vpe.exit" Unlabelled
      [ ("vpe", Id vpe); ("pe", Id pe); ("code", Int code) ]
  | Pipe_push { vpe; pe; bytes } -> pipe "pipe.push" vpe pe bytes
  | Pipe_pop { vpe; pe; bytes } -> pipe "pipe.pop" vpe pe bytes
  | Pe_spawn { pe; name } ->
    mark "pe.spawn" "pe" (Core pe) ("spawn:" ^ name) Unlabelled
      [ ("pe", Id pe); ("name", Text name) ]
  | Pe_halt { pe } ->
    mark "pe.halt" "pe" (Core pe) "halt" Unlabelled [ ("pe", Id pe) ]
  | Fault_drop { src; dst; bytes; msg; reason } ->
    mark "fault.drop" "fault" (Xfer (src, dst)) ("fault.drop:" ^ reason)
      Unlabelled
      [ ("src", Id src); ("dst", Id dst); ("bytes", Sum bytes);
        ("msg", Int msg); ("reason", Text reason) ]
  | Fault_corrupt { src; dst; bytes; msg } ->
    mark "fault.corrupt" "fault" (Xfer (src, dst)) "fault.corrupt" Unlabelled
      [ ("src", Id src); ("dst", Id dst); ("bytes", Sum bytes);
        ("msg", Int msg) ]
  | Fault_stall { pe; cycles } ->
    {
      (mark "fault.stall" "fault" (Core pe) "fault.stall" Unlabelled
         [ ("pe", Id pe); ("cycles", Time cycles) ])
      with
      span = Starting cycles;
    }
  | Dtu_nack { pe; ep; dst_pe; msg; reason } ->
    mark "dtu.nack" "dtu" (Ep (pe, ep)) ("nack:" ^ reason) Unlabelled
      [ ("pe", Id pe); ("ep", Id ep); ("dst_pe", Int dst_pe); ("msg", Int msg);
        ("reason", Text reason) ]
  | Dtu_retry { pe; dst_pe; msg; attempt; backoff } ->
    mark "dtu.retry" "dtu" (Core pe) "retry" Unlabelled
      [ ("pe", Id pe); ("dst_pe", Int dst_pe); ("msg", Int msg);
        ("attempt", Int attempt); ("backoff", Sum backoff) ]
  | Fault_pe_crash { pe } ->
    mark "fault.pe_crash" "fault" (Core pe) "fault.pe_crash" Unlabelled
      [ ("pe", Id pe) ]
  | Vpe_crash { vpe; pe } ->
    mark "vpe.crash" "vpe" (Vpe (pe, vpe)) "vpe.crash" Unlabelled
      [ ("vpe", Id vpe); ("pe", Id pe) ]
  | Vpe_abort { vpe; pe; reason } ->
    mark "vpe.abort" "vpe" (Vpe (pe, vpe)) ("vpe.abort:" ^ reason) Unlabelled
      [ ("vpe", Id vpe); ("pe", Id pe); ("reason", Text reason) ]
  | Vpe_restart { vpe; pe; name; attempt } ->
    mark "vpe.restart" "vpe" (Vpe (pe, vpe)) ("vpe.restart:" ^ name) Unlabelled
      [ ("vpe", Id vpe); ("pe", Id pe); ("name", Text name);
        ("attempt", Int attempt) ]
  | Kernel_heartbeat { pe; probed; dead } ->
    mark "kernel.heartbeat" "kernel" (Core pe) "heartbeat" Unlabelled
      [ ("pe", Id pe); ("probed", Sum probed); ("dead", Sum dead) ]
  | Serve_admit { pe; pool; seq; depth } ->
    serve "serve.admit" pe pool [ ("seq", Int seq); ("depth", Hist depth) ]
  | Serve_reject { pe; pool; seq; depth } ->
    serve "serve.reject" pe pool [ ("seq", Int seq); ("depth", Hist depth) ]
  | Serve_batch { pe; pool; worker; size } ->
    serve "serve.batch" pe pool [ ("worker", Int worker); ("size", Hist size) ]
  | Serve_done { pe; pool; seq; cycles } ->
    {
      (serve "serve.done" pe pool [ ("seq", Int seq); ("cycles", Time cycles) ])
      with
      span = Ending cycles;
    }
  | Serve_restart { pe; pool; worker; attempt } ->
    serve "serve.restart" pe pool
      [ ("worker", Int worker); ("attempt", Int attempt) ]
  | Vpe_suspend { vpe; pe; bytes } ->
    mark "vpe.suspend" "sched" (Core pe)
      (Printf.sprintf "vpe.suspend:vpe%d" vpe)
      Unlabelled
      [ ("vpe", Int vpe); ("pe", Id pe); ("bytes", Sum bytes) ]
  | Vpe_resume { vpe; pe; from_pe; cold } ->
    let how =
      if cold then "cold" else if pe <> from_pe then "migrated" else "in place"
    in
    mark "vpe.resume" "sched" (Core pe)
      (Printf.sprintf "vpe.resume:vpe%d" vpe)
      (Key how)
      [ ("vpe", Int vpe); ("pe", Id pe); ("from_pe", Int from_pe);
        ("cold", Flag cold) ]
  | Sched_switch { pe; out_vpe; in_vpe } ->
    mark "sched.switch" "sched" (Core pe) "sched.switch" Unlabelled
      [ ("pe", Id pe); ("out_vpe", Int out_vpe); ("in_vpe", Int in_vpe) ]
  | Pool_scale { pe; pool; dir; active } ->
    let dir = if dir > 0 then "up" else "down" in
    mark "pool.scale" "sched" (Core pe)
      (Printf.sprintf "pool.scale:%s:%s" pool dir)
      (Key (pool ^ " " ^ dir))
      [ ("pe", Id pe); ("pool", Text pool); ("dir", Text dir);
        ("active", Int active) ]
  | Gw_throttle { pe; pool; client; seq } ->
    serve "gw.throttle" pe pool [ ("client", Int client); ("seq", Int seq) ]
  | Gw_break { pe; pool; worker; phase } ->
    serve ("gw.break." ^ phase) pe pool [ ("worker", Int worker) ]
  | Gw_upgrade { pe; pool; target; cycles } ->
    {
      (mark "gw.upgrade" "serve" (Core pe)
         (Printf.sprintf "gw.upgrade:%s:%s" pool target)
         (Key pool)
         [ ("pe", Id pe); ("pool", Text pool); ("target", Text target);
           ("cycles", Time cycles) ])
      with
      span = Ending cycles;
    }
  | Kv_op { pe; store; op; bucket; dup } ->
    let name = "kv." ^ op in
    mark name "kv" (Core pe) (name ^ ":" ^ store) (Key store)
      [ ("pe", Id pe); ("store", Text store); ("bucket", Int bucket);
        ("dup", Flag dup) ]

let name t = (describe t).name

let pp_value ppf = function
  | Id n | Int n | Sum n | Hist n | Time n -> Format.pp_print_int ppf n
  | Flag b -> Format.pp_print_bool ppf b
  | Text s -> Format.pp_print_string ppf s

let pp ppf t =
  let d = describe t in
  Format.pp_print_string ppf d.name;
  List.iter (fun (k, v) -> Format.fprintf ppf " %s=%a" k pp_value v) d.fields

let to_string t = Format.asprintf "%a" pp t
