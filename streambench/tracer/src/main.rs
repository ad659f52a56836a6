//! `streambench-tracer`: the in-process half of the streamlin benchmark.
//!
//! ```console
//! $ streambench-tracer sources <dir> <variant>...   # write <dir>/<variant>.str
//! $ streambench-tracer trace <ops.json> <out.json>  # traced in-process replay
//! ```
//!
//! Variant names: the nine paper benchmarks (`fir`, `rateconvert`,
//! `targetdetect`, `fmradio`, `radar`, `filterbank`, `vocoder`,
//! `oversampler`, `dtoa`) at their default sizes, plus the scaling
//! families `fir-<taps>` and `radar-<channels>x<beams>`.

mod digest;
mod replay;
mod spans;

use std::process::ExitCode;

use streamlin_benchmarks::Benchmark;

/// The benchmark program a variant name denotes.
pub fn variant(name: &str) -> Result<Benchmark, String> {
    use streamlin_benchmarks as b;
    let bad = || format!("unknown variant `{name}`");
    Ok(match name {
        "fir" => b::fir(256),
        "rateconvert" => b::rate_convert(),
        "targetdetect" => b::target_detect(),
        "fmradio" => b::fm_radio(),
        "radar" => b::radar(12, 4),
        "filterbank" => b::filter_bank(),
        "vocoder" => b::vocoder(),
        "oversampler" => b::oversampler(),
        "dtoa" => b::dtoa(),
        _ => {
            if let Some(taps) = name.strip_prefix("fir-") {
                b::fir(taps.parse().map_err(|_| bad())?)
            } else if let Some(shape) = name.strip_prefix("radar-") {
                let (c, k) = shape.split_once('x').ok_or_else(bad)?;
                b::radar(c.parse().map_err(|_| bad())?, k.parse().map_err(|_| bad())?)
            } else {
                return Err(bad());
            }
        }
    })
}

fn sources(dir: &str, names: &[String]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    for name in names {
        let path = format!("{dir}/{name}.str");
        std::fs::write(&path, variant(name)?.source())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("sources") if args.len() >= 2 => sources(&args[1], &args[2..]),
        Some("trace") if args.len() == 3 => replay::run(&args[1], &args[2]),
        _ => Err("usage: streambench-tracer sources <dir> <variant>... | \
                  trace <ops.json> <out.json>"
            .into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("streambench-tracer: {e}");
            ExitCode::FAILURE
        }
    }
}
