#ifndef SEEDEX_GENOME_FASTA_H
#define SEEDEX_GENOME_FASTA_H

#include <iosfwd>
#include <string>
#include <vector>

#include "genome/sequence.h"

namespace seedex {

/** One FASTA record: a named sequence. */
struct FastaRecord
{
    std::string name;
    Sequence seq;
};

/** One FASTQ record: a named sequence with per-base quality. */
struct FastqRecord
{
    std::string name;
    Sequence seq;
    std::string qual;
};

/** Parse all FASTA records from a stream. Throws std::runtime_error on
 *  malformed input. */
std::vector<FastaRecord> readFasta(std::istream &in);

/** Parse all FASTQ records from a stream. */
std::vector<FastqRecord> readFastq(std::istream &in);

/** Write FASTA records (wrapped at 70 columns). */
void writeFasta(std::ostream &out, const std::vector<FastaRecord> &records);

/** Write FASTQ records. */
void writeFastq(std::ostream &out, const std::vector<FastqRecord> &records);

/** File-path conveniences. Throw std::runtime_error if unopenable,
 *  and the writers also if any write fails (`<path>: write failed`). */
std::vector<FastaRecord> readFastaFile(const std::string &path);
std::vector<FastqRecord> readFastqFile(const std::string &path);
void writeFastaFile(const std::string &path,
                    const std::vector<FastaRecord> &records);
void writeFastqFile(const std::string &path,
                    const std::vector<FastqRecord> &records);

} // namespace seedex

#endif // SEEDEX_GENOME_FASTA_H
