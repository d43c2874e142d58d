//! Support crate for the cross-crate integration tests (the tests live in `tests/`).

use openqudit::prelude::*;

/// 64-bit FNV-1a over the little-endian bytes of `words`, for the golden
/// fingerprints. Written out here because `DefaultHasher`'s output may change
/// between Rust releases.
pub fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// Compiles `target` through the standard pass pipeline (`synthesis → refine → fold`)
/// over a fresh expression cache.
///
/// # Errors
///
/// Propagates the pipeline's [`CompileError`].
pub fn compile_default(
    target: &Matrix<f64>,
    config: &SynthesisConfig,
) -> Result<SynthesisResult, CompileError> {
    compile_with(target, config, &ExpressionCache::new())
}

/// [`compile_default`] over an explicit shared cache.
///
/// # Errors
///
/// Propagates the pipeline's [`CompileError`].
pub fn compile_with(
    target: &Matrix<f64>,
    config: &SynthesisConfig,
    cache: &ExpressionCache,
) -> Result<SynthesisResult, CompileError> {
    Compiler::with_cache(cache.clone())
        .default_passes()
        .compile(CompilationTask::new(target.clone(), config.clone()))
        .map(|report| report.result)
}
