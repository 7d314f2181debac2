(** Program tables — the simulator's stand-in for binaries.

    In the prototype, starting a VPE means copying code into the target
    SPM and pointing the PE at the entry address. Here, "code" is an
    OCaml function; a program table maps a program name (the token that
    travels through the [vpe_start] syscall, or the content of an
    executable file's [#!m3 <name>] line) to that function plus the
    image size whose copy the clone/exec paths charge for.

    Each simulated system has its own table, owned by its kernel
    ({!Kernel.programs}) and reachable from every environment of that
    system ([Env.programs]). Nothing is shared between systems, so a
    finished system's programs die with it. *)

(** A program: receives its environment, returns an exit code. *)
type main = Env.t -> int

type t = Env.program = {
  prog_name : string;
  prog_main : main;
  prog_image_bytes : int;
}

(** One system's program table. *)
type table = Env.programs

(** [create ()] is an empty table. *)
val create : unit -> table

(** [register tbl ~name ~image_bytes main] adds a program; re-registering
    a name replaces it (tests rely on this). *)
val register : table -> name:string -> image_bytes:int -> main -> unit

(** [register_lambda tbl ~image_bytes main] registers under a fresh
    generated name (["lambda.<n>"], counted per table) and returns that
    name — the clone ([VPE::run]) path. *)
val register_lambda : table -> image_bytes:int -> main -> string

val find : table -> string -> t option

(** Default image size charged for a program when unspecified
    (16 KiB — code plus static data in the 64 KiB SPM). *)
val default_image_bytes : int

(** [shebang name] is the executable-file content that selects a
    registered program ("#!m3 <name>\n"). *)
val shebang : string -> string

(** [parse_shebang contents] extracts the program name, if any. *)
val parse_shebang : string -> string option
