//! `clue gen-fib`, `gen-packets`, `gen-updates`: the synthetic inputs.

use crate::args::{ArgError, Args};
use crate::{load_fib, write_text};

use clue::fib::gen::FibGen;
use clue::fib::io::{write_packets, write_route_table, write_updates};
use clue::traffic::{PacketGen, UpdateGen};

pub fn gen_fib(args: &Args) -> Result<(), ArgError> {
    args.check_known(&["out", "routes", "seed", "next-hops"])?;
    let out = args.required("out")?;
    let routes: usize = args.get_or("routes", 100_000)?;
    let seed: u64 = args.get_or("seed", 1)?;
    let next_hops: u16 = args.get_or("next-hops", 24)?;
    let fib = FibGen::new(seed)
        .routes(routes)
        .next_hops(next_hops)
        .generate();
    write_text(out, |f| write_route_table(f, &fib))?;
    println!("wrote {} routes to {out}", fib.len());
    Ok(())
}

pub fn gen_packets(args: &Args) -> Result<(), ArgError> {
    args.check_known(&["fib", "out", "count", "seed", "zipf"])?;
    let fib = load_fib(args.required("fib")?)?;
    let out = args.required("out")?;
    let count: usize = args.get_or("count", 1_000_000)?;
    let seed: u64 = args.get_or("seed", 2)?;
    let zipf: f64 = args.get_or("zipf", 1.1)?;
    let trace = PacketGen::new(seed)
        .zipf_exponent(zipf)
        .generate(&fib, count);
    write_text(out, |f| write_packets(f, &trace))?;
    println!("wrote {count} packets to {out}");
    Ok(())
}

pub fn gen_updates(args: &Args) -> Result<(), ArgError> {
    args.check_known(&["fib", "out", "count", "seed"])?;
    let fib = load_fib(args.required("fib")?)?;
    let out = args.required("out")?;
    let count: usize = args.get_or("count", 10_000)?;
    let seed: u64 = args.get_or("seed", 3)?;
    let updates = UpdateGen::new(seed).generate(&fib, count);
    write_text(out, |f| write_updates(f, &updates))?;
    println!("wrote {count} updates to {out}");
    Ok(())
}
